#!/usr/bin/env bash
# shape: the structural rules that keep MedVault at one of each thing. Every
# rule greps for a construct outside the one place it may live; any match
# fails the build. Run from anywhere: bash scripts/shape.sh
set -u
cd "$(dirname "$0")/.."
fail=0

# check RULE HITS: report the rule and its offending lines when HITS is set.
check() {
	if [ -n "$2" ]; then
		printf 'shape: %s\n%s\n\n' "$1" "$2" >&2
		fail=1
	fi
}

check "One field codec: internal/frame owns every read/write/append helper" \
	"$(grep -rnE '^func (write|read|append)(U8|U16|U32|U64|Str|Bytes|BytesField)\(' internal cmd --include='*.go' | grep -v '^internal/frame/')"

# A put's, correction's or shred's custody event lives in its entry, and
# apply chains it from there, live and in replay alike; no other core file
# names it.
check "One mutation path: only internal/core/commit.go logs an entry, applies one or names a mutation's custody event" \
	"$(grep -nE 'st\.more = append|\.shredded\.Store\(true\)|keys\.Shred\(|AdoptWrapped\(|metaWAL\.(Enqueue|Append)|provenance\.Event(Created|Corrected|Shredded)\b' internal/core/*.go | grep -vE '^internal/core/(commit\.go|[a-z_]*_test\.go):')"

check "One LRU: internal/lru is the only importer of container/list" \
	"$(grep -rn '"container/list"' internal cmd --include='*.go' | grep -v '^internal/lru/')"

check "Audit log out of RAM: internal/audit holds no []Event field" \
	"$(grep -nE '^[[:space:]]+[A-Za-z_]+[[:space:]]+(\[\]|map\[[^]]*\]\*?\[\])Event\b' internal/audit/*.go | grep -v '_test\.go:')"

check "Custody out of RAM: internal/provenance holds no []Event field" \
	"$(grep -nE '^[[:space:]]+[A-Za-z_]+[[:space:]]+(\[\]|map\[[^]]*\]\*?\[\])Event\b' internal/provenance/*.go | grep -v '_test\.go:')"

check "Audit log out of RAM: internal/core never asks the log for everything" \
	"$(grep -nE 'Search\(audit\.Query\{\}\)' internal/core/*.go | grep -v '_test\.go:')"

# The envelope (internal/core/envelope.go) is the only place an operation is
# admitted, traced and reported; core.read_version is a step inside get,
# get_version and export, not an operation.
check "One op envelope: no gate admission, observeOp or core.<op> span outside internal/core/envelope.go" \
	"$(grep -nE 'gate\.admit|observeOp|"core\.[a-z_]+' internal/core/*.go | grep -vE '^internal/core/(envelope\.go|[a-z_]*_test\.go):' | grep -v '"core\.read_version"')"

check "One op envelope: httpapi and sim name outcomes by core.Outcome's label, never by sentinel" \
	"$(grep -rnE '(core|retention)\.Err[A-Za-z]+' internal/httpapi internal/sim --include='*.go' | grep -v '_test\.go:')"

# Core decides which mechanisms are traced, under what span names and
# attributes, and which trace an audit event names: the leaf packages have one
# spelling per operation (the key store's GetCtx keeps its cache verdict), and
# every core audit append stamps its trace in one place (the one audit write
# path, below). The server mints every trace ID, so httpapi never reads a
# request's X-Request-ID.
leaves=$(ls internal/wal/*.go internal/merkle/*.go internal/audit/*.go internal/index/*.go internal/vcrypto/envelope.go | grep -v '_test\.go$')
check "Tracing is decided in core: no obs.StartSpan, obs.TraceID or exported ...Ctx func in wal, merkle, audit, index or vcrypto/envelope.go; httpapi reads no X-Request-ID" \
	"$(grep -nE 'obs\.(StartSpan|TraceID)\(|^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*Ctx\(' $leaves
	grep -rnE '\.Header(\.(Get|Values)\(|\[).*(requestIDHeader|X-Request-I[Dd])' internal/httpapi --include='*.go' | grep -v '_test\.go:')"

# Every transport is a net.Conn under the one repl.Session: frames are read
# and validated only by readFrame, and a shipped op's ack is the barrier.
repl=$(ls internal/repl/*.go | grep -v '_test\.go$')
check "One replication session: no Session interface, Barrier, FeedStream, or frame decoding outside readFrame in internal/repl" \
	"$(grep -nE 'Barrier\(|FeedStream|\bSession[[:space:]]+interface\b' $repl
	awk '/^func /{fn=$0} /frame\.([A-Za-z]+\.)?(Decode|Walk|Header)\(/ && fn !~ /^func readFrame\(/ {print FILENAME ":" FNR ": " $0}' $repl)"

# A registry lookup that finds its series allocates nothing, so every layer
# names its series at the call site and none keeps metric handles in a map of
# its own. Handle structs resolved once at construction (lru.Metrics) are not
# caches; a map of them is.
gofiles=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/obs/*')
handle='[*]obs[.](Counter|Gauge|Histogram)'
holders=$(awk -v h="$handle" '/^type [A-Za-z_]+ struct/ {t=$2} /^}/ {t=""} t != "" && $0 ~ h {print t}' $gofiles | sort -u | paste -sd'|')
check "One way to a series: no map or sync.Map of metric handles outside internal/obs" \
	"$(grep -nE "map\[[^]]*\](struct\{.*)?$handle${holders:+|map\[[^]]*\][*]?([a-z]+[.])?($holders)\b}" $gofiles
	grep -lE "$handle" $gofiles | xargs -r grep -nE 'sync[.]Map')"

check "One way to a series: no trace sampling, tracer stripes, hand-rolled case folding or medvault_trace_seconds" \
	"$(grep -nE 'SampleEvery|perStripe|containsFold|"medvault_trace_seconds"' $(find . -name '*.go' ! -name '*_test.go'))"

# The SSE index holds each token once as raw bytes, and documents and terms
# by number; 64-character hex is only the snapshot's spelling of a token. A
# document's term list is bytes in the index's arena, not a slice of its own.
sse=internal/index/sse.go
check "Compact SSE index: no hex-keyed posting sets, []string token lists or []uint32 document term lists, and hex only in tokenHex/parseTokenHex, in $sse" \
	"$(grep -HnE 'map\[string\]map\[string\]bool|\[\]string' $sse | grep -iE 'map\[string\]map|tok'
	awk '/^func /{fn=$0} /hex\.[A-Z]/ && fn !~ /^func (tokenHex|parseTokenHex)\(/ {print FILENAME ":" FNR ": " $0}' $sse
	awk '/^type doc struct/ {in_doc=1} in_doc && /^}/ {in_doc=0} in_doc && /\[\]uint32/ {print FILENAME ":" FNR ": " $0}' $sse)"

# A shard numbers each record once, in one recno.Table shared by its
# per-record stores, which index slices by that number: none of them keys
# per-record state by the ID string. The index's term table is keyed by
# token, not record. The audit log numbers its symbol values the same way,
# in recno.Tables of its own, and indexes its posting lists by that number.
check "One record table: no map[string] field in the key store, custody tracker, SSE index (but its term table), core Vault or audit Log and chainReader, and no map[string] type in internal/audit" \
	"$(grep -HnE '^[[:space:]]+[A-Za-z_]+[[:space:]]+map\[string\]' internal/vcrypto/keystore.go internal/provenance/provenance.go internal/index/sse.go | grep -vE 'sse\.go:[0-9]+:[[:space:]]+termNum[[:space:]]'
	awk '/^type Vault struct/ {in_vault=1} in_vault && /^}/ {in_vault=0} in_vault && /map\[string\]/ {print FILENAME ":" FNR ": " $0}' internal/core/vault.go
	awk '/^type (Log|chainReader) struct/ {in_t=1} in_t && /^}/ {in_t=0} (in_t || /^type [A-Za-z_]+ .*map\[string\]/) && /map\[string\]/ {print FILENAME ":" FNR ": " $0}' internal/audit/audit.go internal/audit/codec.go)"

# A vault without Config.Dir is the file-backed vault on a fresh faultfs.Mem:
# one block store, the WAL, snapshots and recovery on every vault.
check "One storage path: no memory branch in internal/core and no second block store in internal/blockstore" \
	"$(grep -nE 'NewMemory|dir [!=]= ""|Dir != ""|metaWAL != nil' internal/core/*.go | grep -v '_test\.go:'
	grep -rnE '^type Memory\b' internal/blockstore)"

# Event logs store only what a reader cannot recompute: an event's seq or
# chain index is its place, its hash is computed from the rest, and lengths
# are uvarints. The transfer layout (provenance.EncodeEvent) is self-contained
# on purpose and is not a stored encoder.
check "Compact event logs: the stored audit, custody and flight encoders write no seq, index, event hash or u32-length field, and the audit encoder no whole 32-byte hash" \
	"$(awk '/^func /{fn=$0} fn ~ /^func (encodeEvent|encodeStored|encodeFlightEvent)\(/ && /\.Seq|e\.Index|e\.Hash|frame\.Append(Str|Bytes)\(/ {print FILENAME ":" FNR ": " $0} fn ~ /^func encodeEvent\(/ && /\[:\]|\[:32\]|\[:len\(/ {print FILENAME ":" FNR ": " $0}' internal/audit/codec.go internal/provenance/codec.go internal/obs/flight.go)"

# An audit event's link, the first 8 bytes of its predecessor's hash, is
# what every reader already knows: a reader walking the chain computed that
# hash, and the log keeps each event's link resident for a posting-list read.
# Only the MAC and hash inputs carry it, so no audit writer stores it.
audit=$(ls internal/audit/*.go | grep -v '_test\.go$')
check "Compact event logs: in non-test internal/audit only macInput and chainSums append PrevHash[:linkLen]" \
	"$(awk '/^func /{fn=$0} /append\(.*PrevHash\[:linkLen\]/ && fn !~ /^func (macInput|chainSums)\(/ {print FILENAME ":" FNR ": " $0}' $audit)"

# An audit actor, record ID or detail is written out once per log and
# referred to by number after: the stored encoder hands each to the symbol
# field helper and to nothing else.
check "Compact event logs: the stored audit encoder writes Actor, Record and Detail only through frame.AppendSymbol" \
	"$(awk '/^func /{fn=$0} fn ~ /^func encodeEvent\(/ {line=$0; gsub(/frame\.AppendSymbol\(b, e\.(Actor|Record|Detail),/, "", line); if (line ~ /e\.(Actor|Record|Detail)/) print FILENAME ":" FNR ": " $0}' internal/audit/codec.go)"

# An audit event's time is its predecessor's plus a delta: a reader walking
# the chain has just read that time, and an anchor holds it for a stream
# that starts there. So the stored encoder writes no whole time.
check "Compact event logs: the stored audit encoder calls no frame.AppendTime" \
	"$(awk '/^func /{fn=$0} fn ~ /^func encodeEvent\(/ && /frame\.AppendTime\(/ {print FILENAME ":" FNR ": " $0}' internal/audit/codec.go)"

# An audit event is MACed in one shape, the truncated tag internal/vcrypto
# owns: the log tags through KeyedMAC.Tag and checks through VerifyTag, the
# whole-MAC Verify survives only in checkMAC's arm for the decode-only
# layouts, and no audit code truncates a sum or spells a MAC length of its
# own ([32]byte is a hash, not a MAC length). Flight's 6-byte record token (internal/core/envelope.go) names a
# record; it is not a MAC, and this rule does not look at it.
tagdefs=$(grep -rnE '^[[:space:]]*(const[[:space:]]+|var[[:space:]]+)?TagSize\b[^=]*=[^=]' --include='*.go' --exclude-dir=bench .)
check "One tag shape: non-test internal/audit calls no .Sum(, a KeyedMAC's .Verify( only in checkMAC, and writes no 16 or 32 on a line naming a MAC or tag; TagSize is defined once, in internal/vcrypto/keys.go" \
	"$(awk '/^func /{fn=$0} {code=$0; sub(/\/\/.*/, "", code); gsub(/\[32\]byte/, "", code)} code ~ /\.Sum\(/ || (code ~ /[Mm]ac\.Verify\(/ && fn !~ /^func \(l \*Log\) checkMAC\(/) || (code ~ /[Mm][Aa][Cc]|[Tt]ag/ && code ~ /(^|[^0-9A-Za-z_.])(16|32)([^0-9A-Za-z_]|$)/) {print FILENAME ":" FNR ": " $0}' $audit
	[ "$(grep -c . <<<"$tagdefs")" -eq 1 ] && grep -q '^\./internal/vcrypto/keys\.go:' <<<"$tagdefs" || printf 'TagSize definitions:\n%s\n' "${tagdefs:-none}")"

# The metadata WAL's version entry stores only what replay cannot recompute:
# lengths and numbers are uvarints, and a correction repeats nothing its
# record's version 1 fixed. Its 'V' path in walEntry.encode and the compact
# version writer it shares with meta.snap write no u32-length or u64 field.
check "Compact event logs: the metadata WAL's version entry writes no u32-length or u64 field" \
	"$(awk '/^func /{fn=$0; v=0} fn ~ /^func \(e \*walEntry\) encode\(/ && /e\.kind == .V.|case .V.:/ {v=1} fn ~ /^func \(e \*walEntry\) encode\(/ && v && /^\t}/ {v=0} (v || fn ~ /^func appendCompactVersion\(/) && /frame\.Append(Str|Bytes)\(|AppendUint64\(/ {print FILENAME ":" FNR ": " $0}' internal/core/meta.go)"

# Custody events are MACed on the medium and signed only as a chain leaves the
# vault (provenance.Tracker.Export); every per-operation MAC goes through
# vcrypto's pooled KeyedMAC, so hmac.New lives only in internal/vcrypto.
check "Custody signs at the boundary: no .Sign( in internal/provenance outside Tracker.Export, no hmac.New outside internal/vcrypto" \
	"$(awk '/^func /{fn=$0} /\.Sign\(/ && fn !~ /^func \(tr \*Tracker\) Export\(/ {print FILENAME ":" FNR ": " $0}' $(ls internal/provenance/*.go | grep -v '_test\.go$')
	grep -rn 'hmac\.New' --include='*.go' . | grep -v '^\./internal/vcrypto/')"


# Every frame on a medium or a stream — WAL, replication, flight, blockstore —
# is encoded and checked by internal/frame, so it holds the one CRC-32C; and
# meta.wal has one reader, wal.Read, which core reaches through wal.
check "One frame codec: only internal/frame imports hash/crc32, and internal/core never calls frame.Decode(" \
	"$(grep -rn '"hash/crc32"' --include='*.go' . | grep -v '^\./internal/frame/'
	grep -nE 'frame\.([A-Za-z]+\.)?(Decode|Walk)\(' internal/core/*.go)"

# A version is one meta.wal write and one fsync: its ciphertext rides in the
# entry, and only checkpoint moves it to the block store and syncs it there —
# for Close and for SanitizeMedia alike. Every read of version bytes goes
# through the one helper that finds them.
check "One barrier per version: internal/core appends to or syncs the block store only in checkpoint, reads it only in ciphertext, and no SyncCtx exists" \
	"$(awk '/^func /{fn=$0} /\.blocks\.(Sync|Append)\(/ && fn !~ /^func \(v \*Vault\) checkpoint\(/ {print FILENAME ":" FNR ": " $0} /\.blocks\.Read\(/ && fn !~ /^func \(v \*Vault\) ciphertext\(/ {print FILENAME ":" FNR ": " $0}' $(ls internal/core/*.go | grep -v '_test\.go$')
	grep -rn 'SyncCtx' --include='*.go' .)"

# SanitizeMedia is a checkpoint that relocates: it empties old segments in
# place, so core renames and removes no directory, and the block store a shard
# opens is the one it closes.
core=$(ls internal/core/*.go | grep -v '_test\.go$')
check "Sanitize is a checkpoint: internal/core calls no .fs.Rename( or .fs.RemoveAll(, and assigns v.blocks only in openShard" \
	"$(grep -nE '\.fs\.(Rename|RemoveAll)\(' $core
	awk '/^func /{fn=$0} /v\.blocks(, [A-Za-z_.]+)* =[^=]/ && fn !~ /^func openShard\(/ {print FILENAME ":" FNR ": " $0}' $core)"

# Every audit event of a shard rides in meta.wal until a checkpoint: a
# standalone one as its own entry through appendAudit, a create's or
# correction's allowed event folded into its entry in commit. Only checkpoint
# copies the tail to audit/ (audit.Log.Flush), and core writes audit/ itself
# nowhere.
check "One audit write path: non-test internal/core appends to the audit log only in appendAudit and commit, flushes it only in checkpoint, and never appends to auditStore" \
	"$(awk '/^func /{fn=$0} /\.aud\.Append[A-Za-z]*\(/ && fn !~ /^func \(v \*Vault\) (appendAudit|commit)\(/ {print FILENAME ":" FNR ": " $0} /\.aud\.Flush\(/ && fn !~ /^func \(v \*Vault\) checkpoint\(/ {print FILENAME ":" FNR ": " $0} /auditStore\.Append\(/ {print FILENAME ":" FNR ": " $0}' $core)"

# A mutation's custody event stays in its meta.wal entry until checkpoint
# writes it (Tracker.Flush), so apply writes no custody; the events that are
# no mutation's — backed up, migrated out and in, restored, adopted — are
# appended in export.go, after their record's pending ones.
check "Custody at checkpoint: internal/core calls the tracker's Flush only in checkpoint, and Record or Adopt only in export.go" \
	"$(awk '/^func /{fn=$0} /\.prov\.Flush\(/ && fn !~ /^func \(v \*Vault\) checkpoint\(/ {print FILENAME ":" FNR ": " $0} /\.prov\.(Record|Adopt)\(/ && FILENAME != "internal/core/export.go" {print FILENAME ":" FNR ": " $0}' $core)"

# The reference model in internal/sim is the one crash oracle: only the sim's
# harnesses (and faultfs, which defines them) cut power, tear a write or fail
# a sync, so the model judges every recovered image.
check "One crash oracle: no non-test Go outside internal/faultfs and internal/sim calls CrashImage(, CrashBefore(, CrashAfter(, TornWriteAt( or FailNthSync(" \
	"$(grep -rnE '(CrashImage|CrashBefore|CrashAfter|TornWriteAt|FailNthSync)\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./internal/(faultfs|sim)/')"

# A struck step — a medsim crash or fault step, or a torture scenario — has
# one judgement, engine.judge, and the failover matrix is the torture with a
# replication strike, not a second harness.
sim=$(ls internal/sim/*.go | grep -v '_test\.go$')
check "One judgement: in internal/sim only judge calls recoverCut(, and no Go file defines RunFailoverTorture, FailoverOpts or failoverScenario" \
	"$(awk '/^func /{fn=$0} /recoverCut\(/ && !/^func \(e \*engine\) recoverCut\(/ && fn !~ /^func \(e \*engine\) judge\(/ {print FILENAME ":" FNR ": " $0}' $sim
	grep -rnE '^(func|type) (\([^)]*\) )?(RunFailoverTorture|FailoverOpts|failoverScenario)\b' --include='*.go' .)"

# The handshake is the one anti-entropy check: each node digests its own
# directory, so internal/repl needs nothing of the vault's internals, and no
# keyless Merkle reader or signed-heads exchange comes back beside it.
check "One anti-entropy check: non-test internal/repl imports no medvault/internal/core, and no Go file defines ReplicaHeads, MerkleRootAt or frameHeads" \
	"$(grep -n '"medvault/internal/core"' $repl
	grep -rnE '^(func|type) (\([^)]*\) )?(ReplicaHeads|MerkleRootAt)\b|^[[:space:]]*frameHeads(Ack)?\b' --include='*.go' .)"

# The shard's meta.wal is the one commit order: a version's leaf joins the
# Merkle log in its entry's durable hook, which runs once the entry is fsynced,
# so no lock sequences commits beside the WAL, no leaf is ever taken back, and
# only commit.go appends a leaf (commit live, replay in recovery).
check "One commit order: no commitMu in non-test internal/core, no Tree.Truncate in internal/merkle, and appendLeaf( only in internal/core/commit.go" \
	"$(grep -n 'commitMu' $(ls internal/core/*.go | grep -v '_test\.go$')
	grep -n '^func (t \*Tree) Truncate' internal/merkle/*.go
	grep -rn 'appendLeaf(' internal cmd --include='*.go' | grep -v '^internal/core/commit\.go:')"

# A resync rewrites the follower's tree as ordinary op frames on the one
# stream, so no snapshot frame, snapshot codec or follower resync state
# comes back beside it.
check "One way to change a replica: no Go names frameSnap, encodeSnapFile, decodeSnapFile, applySnapFileLocked or inResync" \
	"$(grep -rnE 'frameSnap|encodeSnapFile|decodeSnapFile|applySnapFileLocked|inResync' --include='*.go' .)"

# Every file the vault appends to is frame.Var frames: frame.Seq stays for
# the replication wire and the WAL's layout marker, and frame.Block is read,
# never written. A tamper model re-frames through the package owning the file.
check "One file frame: no frame.Seq.Append or frame.Block.Append in non-test Go outside internal/frame, internal/repl and wal.Log.Enqueue" \
	"$(awk '/^func /{fn=$0} /frame\.(Seq|Block)\.Append\(/ && !(FILENAME == "internal/wal/wal.go" && fn ~ /^func \(l \*Log\) Enqueue\(/) {print FILENAME ":" FNR ": " $0}' \
		$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/frame/*' ! -path 'internal/repl/*'))"

# A whole-vault operation visits shards one at a time in shard order, so
# its fs ops land in the same order on every run and a crash injected at one
# op index strikes the same op each time.
check "Shards in shard order: internal/core/cluster.go starts no goroutine" \
	"$(grep -n 'go func' internal/core/cluster.go)"

# A version is sealed in one layout, which the AAD binds to its record's ID:
# commitVersion seals, openVersion opens, and only sealedRecord's legacy
# branch reads an MVR1 plaintext. The canonical encoding stays the content
# hash and bundle domain (bundlecodec.go); verify.go authenticates and
# checks identity through sealedRecord.
check "One at-rest record layout: in non-test internal/core, ehr.Decode( only in sealedRecord and bundlecodec.go, sealAAD( only in commitVersion, openVersion and verify.go" \
	"$(awk '/^func /{fn=$0} /ehr\.Decode\(/ && !(FILENAME == "internal/core/bundlecodec.go" || fn ~ /^func \(v \*Vault\) sealedRecord\(/) {print FILENAME ":" FNR ": " $0} /sealAAD\(/ && !/^func sealAAD\(/ && !(FILENAME == "internal/core/verify.go" || fn ~ /^func \(v \*Vault\) (commitVersion|openVersion)\(/) {print FILENAME ":" FNR ": " $0}' $core)"

# The sweep proves each fact once. A version's commitment is the commitment
# log's leaf at its index, compared in place (checkLeaf), so only the proof
# route builds or checks an inclusion proof; and one stream of the audit
# chain checks it and every remembered checkpoint.
check "One sweep pass: in non-test internal/core, InclusionProof and VerifyInclusion only in proofs.go, and verify.go calls the audit log's verification exactly once" \
	"$(grep -nE '\b(InclusionProof|VerifyInclusion)\b' $core | grep -v '^internal/core/proofs\.go:'
	calls=$(grep -cE '\.aud\.Verify[A-Za-z]*\(' internal/core/verify.go)
	[ "$calls" -eq 1 ] || echo "internal/core/verify.go: $calls lines call the audit log's verification")"

# Every fuzz target runs in CI's fuzz step on its own package, under a
# pattern anchored to its name alone: go test refuses a -fuzz pattern that
# matches two targets, and a refused line stops the step.
ran=$(awk '/- name: Fuzz/ {on=1; next} on && /- name:|^ *#/ {on=0} on && /go test -fuzz/ {for (i = 1; i < NF; i++) if ($i == "-fuzz") pat = $(i+1); print $NF, pat}' .github/workflows/ci.yml)
check "Every fuzz target runs: each func Fuzz... in non-bench Go is a -fuzz '^Name\$' line on its package in the CI fuzz step" \
	"$(grep -rHoE --include='*.go' --exclude-dir=bench '^func Fuzz[A-Za-z0-9_]+' . | while IFS=: read -r file decl; do
		name=${decl#func }
		grep -qxF "$(dirname "$file") '^$name\$'" <<<"$ran" || echo "$file: $name"
	done)"

# The on-disk flight tail is sized by the ring it mirrors: half a ring a
# segment, two rings in all. Spelled as expressions of DefaultFlightCapacity,
# the tail a crash leaves and the ring a live node serves cannot drift apart.
flightdefs=$(sed 's://.*$::' internal/obs/flight.go | grep -nE '^[[:space:]]*(const[[:space:]]+)?(flightSegmentEvents|flightKeepSegments)\b[^=]*=')
check "Flight tail follows the ring: internal/obs/flight.go defines flightSegmentEvents and flightKeepSegments once each, only as expressions of DefaultFlightCapacity" \
	"$(grep -v DefaultFlightCapacity <<<"$flightdefs" | sed 's:^:internal/obs/flight.go\::'
	for name in flightSegmentEvents flightKeepSegments; do
		[ "$(grep -cE "^[0-9]+:[[:space:]]*(const[[:space:]]+)?$name\b" <<<"$flightdefs")" -eq 1 ] || echo "internal/obs/flight.go: $name is not defined exactly once"
	done)"

# A paper table is measured once: the shape tests read the Table that E<n>
# returns, which is what medbench prints, so no second implementation of an
# experiment lives beside it for the tests.
check "One run per paper table: no func E<n>Raw in internal/experiments" \
	"$(grep -rnE '^func E[0-9]+[a-z]?Raw\b' internal/experiments --include='*.go')"

# A change rewrites the DESIGN.md section it alters instead of appending one,
# so the document never grows.
design=$(wc -c < DESIGN.md)
check "Docs edited in place: DESIGN.md is at most 88018 bytes" \
	"$([ "$design" -le 88018 ] || echo "DESIGN.md: $design bytes")"
exit $fail
