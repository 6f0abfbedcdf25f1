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
# by number; 64-character hex is only the snapshot's spelling of a token.
sse=internal/index/sse.go
check "Compact SSE index: no hex-keyed posting sets or []string token lists, and hex only in tokenHex/parseTokenHex, in $sse" \
	"$(grep -HnE 'map\[string\]map\[string\]bool|\[\]string' $sse | grep -iE 'map\[string\]map|tok'
	awk '/^func /{fn=$0} /hex\.[A-Z]/ && fn !~ /^func (tokenHex|parseTokenHex)\(/ {print FILENAME ":" FNR ": " $0}' $sse)"

# A shard numbers each record once, in one recno.Table shared by its
# per-record stores, which index slices by that number: none of them keys
# per-record state by the ID string. The index's term table is keyed by
# token, not record.
check "One record table: no map[string] field in the key store, custody tracker, SSE index (but its term table) or core Vault" \
	"$(grep -HnE '^[[:space:]]+[A-Za-z_]+[[:space:]]+map\[string\]' internal/vcrypto/keystore.go internal/provenance/provenance.go internal/index/sse.go | grep -vE 'sse\.go:[0-9]+:[[:space:]]+termNum[[:space:]]'
	awk '/^type Vault struct/ {in_vault=1} in_vault && /^}/ {in_vault=0} in_vault && /map\[string\]/ {print FILENAME ":" FNR ": " $0}' internal/core/vault.go)"

# A vault without Config.Dir is the file-backed vault on a fresh faultfs.Mem:
# one block store, the WAL, snapshots and recovery on every vault.
check "One storage path: no memory branch in internal/core and no second block store in internal/blockstore" \
	"$(grep -nE 'NewMemory|dir [!=]= ""|Dir != ""|metaWAL != nil' internal/core/*.go | grep -v '_test\.go:'
	grep -rnE '^type Memory\b' internal/blockstore)"

# Event logs store only what a reader cannot recompute: an event's seq or
# chain index is its place, its hash is computed from the rest, an audit
# event links to its predecessor by 8 bytes of that hash, and lengths are
# uvarints. The transfer layout (provenance.EncodeEvent) is self-contained
# on purpose and is not a stored encoder.
check "Compact event logs: the stored audit, custody and flight encoders write no seq, index, event hash or u32-length field, and the audit encoder no whole 32-byte hash (its link is 8 bytes)" \
	"$(awk '/^func /{fn=$0} fn ~ /^func (encodeEvent|encodeStored|encodeFlightEvent)\(/ && /\.Seq|e\.Index|e\.Hash|frame\.Append(Str|Bytes)\(/ {print FILENAME ":" FNR ": " $0} fn ~ /^func encodeEvent\(/ && /\[:\]|\[:32\]|\[:len\(/ {print FILENAME ":" FNR ": " $0}' internal/audit/codec.go internal/provenance/codec.go internal/obs/flight.go)"

# An audit actor, record ID or detail is written out once per log and
# referred to by number after: the stored encoder hands each to the symbol
# field helper and to nothing else.
check "Compact event logs: the stored audit encoder writes Actor, Record and Detail only through frame.AppendSymbol" \
	"$(awk '/^func /{fn=$0} fn ~ /^func encodeEvent\(/ {line=$0; gsub(/frame\.AppendSymbol\(b, e\.(Actor|Record|Detail),/, "", line); if (line ~ /e\.(Actor|Record|Detail)/) print FILENAME ":" FNR ": " $0}' internal/audit/codec.go)"

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

# A change rewrites the DESIGN.md section it alters instead of appending one,
# so the document never grows.
design=$(wc -c < DESIGN.md)
check "Docs edited in place: DESIGN.md is at most 88018 bytes" \
	"$([ "$design" -le 88018 ] || echo "DESIGN.md: $design bytes")"
exit $fail
