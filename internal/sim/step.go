// Package sim is MedVault's deterministic compliance simulator and its one
// crash oracle: a full reference model of the vault's observable semantics, a
// seeded op-sequence generator that drives the real vault through every
// public operation — valid and invalid — and a checker that cross-checks the
// two after every step. The model judges compliance semantics (immutable
// version history with corrections, enforced retention and legal holds,
// complete audit/provenance/disclosure accounting, authorized search — the
// paper's Section-3 requirements as executable checks) and the ack contract
// alike: the crash-recovery torture harnesses (torture.go) run a fixed script
// of the same Steps under a fault at every filesystem op and stream boundary,
// and the model judges every recovered image.
//
// Everything is data-driven: a run is a Plan (seed, scale, mode) plus a
// sequence of Steps, each a concrete serializable operation. The generator
// emits Steps from the model's state; the runner executes each Step against
// both the model and the real vault and reports the first divergence. Fault
// injection (mid-run power cuts, ENOSPC, bit rot) is expressed as Steps too,
// so a failing sequence — faults included — replays from its trace file and
// shrinks with ddmin to a minimal reproduction.
package sim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// OpKind names one simulated operation.
type OpKind string

// The op vocabulary. Vault operations plus control ops (advance, crash,
// enospc) that shape the environment; control ops are ordinary Steps so
// traces capture — and the shrinker minimizes — the whole scenario.
const (
	OpPut         OpKind = "put"          // Vault.PutCtx
	OpGet         OpKind = "get"          // Vault.GetCtx
	OpGetVersion  OpKind = "get_version"  // Vault.GetVersionCtx
	OpHistory     OpKind = "history"      // Vault.HistoryCtx
	OpCorrect     OpKind = "correct"      // Vault.CorrectCtx
	OpSearch      OpKind = "search"       // Vault.SearchCtx
	OpSearchAll   OpKind = "search_all"   // Vault.SearchAllCtx
	OpShred       OpKind = "shred"        // Vault.ShredCtx
	OpPlaceHold   OpKind = "place_hold"   // Vault.PlaceHoldCtx
	OpReleaseHold OpKind = "release_hold" // Vault.ReleaseHoldCtx
	OpBreakGlass  OpKind = "break_glass"  // Cluster.BreakGlassCtx
	OpRevoke      OpKind = "revoke"       // Authz().Revoke
	OpDisclosures OpKind = "disclosures"  // Vault.AccountingOfDisclosuresCtx
	OpPatientRecs OpKind = "patient_recs" // Vault.PatientRecordsCtx
	OpSanitize    OpKind = "sanitize"     // Cluster.SanitizeMedia
	OpClose       OpKind = "close"        // Cluster.Close (the checkpoint); the next step reopens
	OpAdvance     OpKind = "advance"      // advance the virtual clock
	OpVerify      OpKind = "verify"       // deep cross-check (VerifyAll, audit, provenance, disclosures)
	OpCrash       OpKind = "crash"        // durable mode: power cut, recover, re-verify, close, cut again, recover
	OpENOSPC      OpKind = "enospc"       // durable mode: arm an out-of-space fault N mutating fs ops from now
)

// Step is one concrete operation in a run. Only the fields the op uses are
// set; zero fields are omitted from the trace encoding.
type Step struct {
	Op       OpKind   `json:"op"`
	Actor    string   `json:"actor,omitempty"`
	Record   string   `json:"record,omitempty"`
	MRN      string   `json:"mrn,omitempty"`
	Patient  string   `json:"patient,omitempty"`
	Category string   `json:"category,omitempty"`
	Title    string   `json:"title,omitempty"`
	Body     string   `json:"body,omitempty"`
	Codes    []string `json:"codes,omitempty"`
	Version  uint64   `json:"version,omitempty"`  // get_version target
	Keywords []string `json:"keywords,omitempty"` // search / search_all
	Reason   string   `json:"reason,omitempty"`   // place_hold / break_glass
	Minutes  int      `json:"minutes,omitempty"`  // break_glass duration
	Hours    int      `json:"hours,omitempty"`    // advance amount
	Backdate int      `json:"backdate,omitempty"` // put: CreatedAt = now - Backdate hours
	N        int      `json:"n,omitempty"`        // enospc: fail the Nth mutating fs op from now; rot: ciphertext reads to let through first
	Rot      bool     `json:"rot,omitempty"`      // get, get_version: arm a corrupted ciphertext read
}

// Plan is a trace header: everything besides the steps a run needs to be
// reproduced exactly.
type Plan struct {
	Format  int   `json:"medsim"` // trace format version
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	Shards  int   `json:"shards,omitempty"` // cluster shard count; 0 or absent = single vault
	Durable bool  `json:"durable"`
	// Failover replicates the vault to a warm follower and turns every crash
	// step into a failover: instead of recovering the primary's crash image,
	// the follower is promoted and its replica becomes the next generation's
	// disk. Durable mode only; absent in pre-failover traces.
	Failover bool   `json:"failover,omitempty"`
	Name     string `json:"name,omitempty"` // vault system name; defaults to "medsim"
}

// traceFormat is the current trace file format version.
const traceFormat = 1

// Trace is a fully reproducible run: header plus concrete steps.
type Trace struct {
	Plan  Plan
	Steps []Step
}

// Hash returns the canonical SHA-256 of the trace — header plus every step
// in its JSON line encoding. Two runs with the same seed and configuration
// produce byte-identical traces and therefore equal hashes.
func (t Trace) Hash() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(t.Plan)
	for _, s := range t.Steps {
		_ = enc.Encode(s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Encode writes the trace as JSON lines: the Plan header first, then one
// step per line.
func (t Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Plan); err != nil {
		return err
	}
	for _, s := range t.Steps {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile encodes the trace to path.
func (t Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeTrace parses a JSON-lines trace.
func DecodeTrace(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			if err := json.Unmarshal(line, &t.Plan); err != nil {
				return t, fmt.Errorf("sim: bad trace header: %w", err)
			}
			if t.Plan.Format != traceFormat {
				return t, fmt.Errorf("sim: unsupported trace format %d (want %d)", t.Plan.Format, traceFormat)
			}
			first = false
			continue
		}
		var s Step
		if err := json.Unmarshal(line, &s); err != nil {
			return t, fmt.Errorf("sim: bad step %d: %w", len(t.Steps), err)
		}
		t.Steps = append(t.Steps, s)
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	if first {
		return t, fmt.Errorf("sim: empty trace")
	}
	return t, nil
}

// ReadTraceFile decodes the trace at path.
func ReadTraceFile(path string) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, err
	}
	defer f.Close()
	return DecodeTrace(f)
}

// String renders a step as a compact one-liner for failure reports.
func (s Step) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}
