package medclient

import "time"

// Wire types for the medvaultd REST surface. These deliberately do NOT
// share Go types with internal/httpapi: the client declares what it
// believes the wire format is, the server declares what it serves, and the
// httpapi tests drive one against the other — a drift in either direction
// fails a test instead of being hidden by a shared struct. Field tags must
// match the JSON documented in internal/httpapi's route list.

// Record is a health record as sent to and returned by the API.
type Record struct {
	ID        string    `json:"id"`
	Patient   string    `json:"patient"`
	MRN       string    `json:"mrn"`
	Category  string    `json:"category"`
	Author    string    `json:"author,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	Title     string    `json:"title"`
	Body      string    `json:"body"`
	Codes     []string  `json:"codes,omitempty"`
	Version   uint64    `json:"version,omitempty"`
}

// VersionInfo is one row of GET /records/{id}/history.
type VersionInfo struct {
	Number           uint64    `json:"number"`
	Author           string    `json:"author"`
	Timestamp        time.Time `json:"timestamp"`
	CiphertextSHA256 string    `json:"ciphertext_sha256"`
	CommitmentLeaf   uint64    `json:"commitment_leaf"`
}

// IDList is the {ids, count} shape shared by /search, /patients/{mrn}/records,
// and /retention/expired.
type IDList struct {
	IDs   []string `json:"ids"`
	Count int      `json:"count"`
}

// AuditQuery filters GET /audit.
type AuditQuery struct {
	Record     string // audit entries touching this record ID
	Actor      string // entries by this principal
	DeniedOnly bool   // only denied attempts
}

// AuditEvent is one row of GET /audit.
type AuditEvent struct {
	Seq       uint64    `json:"seq"`
	Timestamp time.Time `json:"timestamp"`
	Actor     string    `json:"actor"`
	Action    string    `json:"action"`
	Record    string    `json:"record,omitempty"`
	Version   uint64    `json:"version,omitempty"`
	Outcome   string    `json:"outcome"`
	Detail    string    `json:"detail,omitempty"`
	Trace     string    `json:"trace,omitempty"`
}

// CustodyEvent is one row of GET /records/{id}/custody.
type CustodyEvent struct {
	Index     uint64    `json:"index"`
	Type      string    `json:"type"`
	Timestamp time.Time `json:"timestamp"`
	Actor     string    `json:"actor"`
	System    string    `json:"system"`
	Peer      string    `json:"peer,omitempty"`
}

// Disclosure is one row of GET /patients/{mrn}/disclosures.
type Disclosure struct {
	Timestamp  time.Time `json:"timestamp"`
	Actor      string    `json:"actor"`
	Action     string    `json:"action"`
	Record     string    `json:"record"`
	Version    uint64    `json:"version,omitempty"`
	Outcome    string    `json:"outcome"`
	BreakGlass bool      `json:"break_glass,omitempty"`
}

// Proof is GET /records/{id}/versions/{n}/proof: a third-party-verifiable
// Merkle inclusion proof under a signed tree head.
type Proof struct {
	RecordID      string   `json:"record_id"`
	Version       uint64   `json:"version"`
	CtHash        string   `json:"ciphertext_sha256"`
	LeafIndex     uint64   `json:"leaf_index"`
	InclusionPath []string `json:"inclusion_path"`
	HeadSize      uint64   `json:"head_size"`
	HeadRoot      string   `json:"head_root"`
	HeadTime      string   `json:"head_time"`
	HeadSig       string   `json:"head_signature"`
	VaultKey      string   `json:"vault_public_key"`
}

// VerifyResult is POST /verify on success (200). On integrity failure the
// server answers 409 with {"status": "INTEGRITY FAILURE", "error": ...},
// which decodes into the same shape. A single-shard vault answers its one
// tree head; a multi-shard vault answers one head per shard in Shards, no
// TreeHeadRoot, and the summed size in TreeHeadSize.
type VerifyResult struct {
	Status           string      `json:"status"`
	RecordsChecked   int         `json:"records_checked"`
	VersionsChecked  int         `json:"versions_checked"`
	AuditEvents      int         `json:"audit_events"`
	ProvenanceChains int         `json:"provenance_chains"`
	TreeHeadSize     uint64      `json:"tree_head_size"`
	TreeHeadRoot     string      `json:"tree_head_root"`
	Shards           []ShardHead `json:"shards,omitempty"`
	Error            string      `json:"error,omitempty"`
}

// ShardHead is one shard's tree head in a multi-shard POST /verify answer.
type ShardHead struct {
	Shard        int    `json:"shard"`
	TreeHeadSize uint64 `json:"tree_head_size"`
	TreeHeadRoot string `json:"tree_head_root"`
}

// Hold is one row of GET /retention/holds.
type Hold struct {
	Record string    `json:"record"`
	Reason string    `json:"reason"`
	Placed time.Time `json:"placed"`
}

// ShardHealth is one shard's slice of a multi-shard /healthz report.
type ShardHealth struct {
	Shard         int    `json:"shard"`
	Open          bool   `json:"open"`
	Records       int    `json:"records"`
	WALWedged     bool   `json:"wal_wedged"`
	WALWedgeError string `json:"wal_wedge_error,omitempty"`
	WALQueueDepth int    `json:"wal_queue_depth"`
}

// Health is GET /healthz. A 503 carries the same shape with Status
// "closed" or "wal-wedged".
type Health struct {
	Status        string        `json:"status"`
	System        string        `json:"system"`
	Records       int           `json:"records"`
	WALWedged     bool          `json:"wal_wedged"`
	WALWedgeError string        `json:"wal_wedge_error,omitempty"`
	WALQueueDepth int           `json:"wal_queue_depth"`
	InFlightOps   int           `json:"in_flight_ops"`
	Shards        []ShardHealth `json:"shards,omitempty"`
}

// ErrorEnvelope is the JSON error body every non-2xx vault response carries
// (observability endpoints excepted): {"error": "..."}. The edge tests pin
// this shape so clients can rely on it.
type ErrorEnvelope struct {
	Error string `json:"error"`
}
