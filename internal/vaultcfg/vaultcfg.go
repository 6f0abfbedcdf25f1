// Package vaultcfg opens fully configured, durable vaults for the CLI and
// the HTTP server: it resolves the master key, loads the principals file,
// and applies the standard role set and retention policies.
//
// Layout under the vault directory:
//
//	<dir>/blocks/ audit/ prov/ meta.wal meta.snap   (managed by core)
//	<dir>/principals.conf                            (managed here)
//
// principals.conf is one principal per line: "<id> <role>[,<role>...]".
// Lines starting with '#' are comments. Roles are the standard set
// (physician, nurse, billing-clerk, compliance-officer, archivist, admin).
package vaultcfg

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"medvault/internal/authz"
	"medvault/internal/core"
	"medvault/internal/faultfs"
	"medvault/internal/vcrypto"
)

// PrincipalsFile is the name of the principals config inside a vault dir.
const PrincipalsFile = "principals.conf"

// ErrBadMasterKey indicates a malformed master key string.
var ErrBadMasterKey = errors.New("vaultcfg: master key must be 64 hex characters")

// ParseMasterKey decodes a 64-hex-char master key.
func ParseMasterKey(s string) (vcrypto.Key, error) {
	b, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil || len(b) != vcrypto.KeySize {
		return vcrypto.Key{}, ErrBadMasterKey
	}
	return vcrypto.KeyFromBytes(b)
}

// GenerateMasterKey returns a fresh key and its hex form.
func GenerateMasterKey() (vcrypto.Key, string, error) {
	k, err := vcrypto.NewKey()
	if err != nil {
		return vcrypto.Key{}, "", err
	}
	return k, hex.EncodeToString(k[:]), nil
}

// Options carries the tunables a deployment may want to set; the zero value
// selects the defaults.
//
// Sizing-knob semantics (the single source of truth, shared by every cache
// flag and config field): 0 selects the built-in default, the sentinel -1
// disables that cache layer entirely, positive sets an explicit bound. Any
// other negative value is a configuration mistake and is rejected by
// Validate rather than silently treated as "disabled".
type Options struct {
	DEKCacheEntries int   // plaintext-DEK cache bound (entries)
	BlockCacheBytes int64 // ciphertext block cache bound (bytes)

	// Shards is the cluster's shard count: 0 adopts the existing layout (the
	// cluster manifest's pinned count, or 1 for a fresh or pre-cluster
	// directory), 1..core.MaxShards opens that many shards. The count is
	// fixed at creation; reopening with a different value is an error.
	Shards int

	// FS overrides the filesystem the vault lives on; nil is the real OS
	// filesystem. The server uses this to interpose the replication capture
	// between the vault and its disk.
	FS faultfs.FS
}

// CacheDisabled is the documented sentinel that disables a cache layer.
const CacheDisabled = -1

// Validate rejects nonsensical option values with an error naming the knob.
func (o Options) Validate() error {
	if o.DEKCacheEntries < CacheDisabled {
		return fmt.Errorf("vaultcfg: dek-cache %d is invalid (0 = default, %d = disabled, >0 = bound)", o.DEKCacheEntries, CacheDisabled)
	}
	if o.BlockCacheBytes < CacheDisabled {
		return fmt.Errorf("vaultcfg: block-cache %d is invalid (0 = default, %d = disabled, >0 = bound)", o.BlockCacheBytes, CacheDisabled)
	}
	if o.Shards < 0 || o.Shards > core.MaxShards {
		return fmt.Errorf("vaultcfg: shards %d is invalid (0 = adopt existing layout, 1..%d = shard count)", o.Shards, core.MaxShards)
	}
	return nil
}

// Open opens (creating if needed) the durable vault at dir with the given
// master key and system name, loading roles and principals.
func Open(dir, name string, master vcrypto.Key) (*core.Cluster, error) {
	return OpenWith(dir, name, master, Options{})
}

// OpenWith is Open with explicit Options. With Options.Shards 0 or 1 the
// vault uses the classic single-vault layout, otherwise one directory per
// shard under dir.
func OpenWith(dir, name string, master vcrypto.Key, opt Options) (*core.Cluster, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	v, err := core.Open(core.Config{
		Name:            name,
		Master:          master,
		Dir:             dir,
		Shards:          opt.Shards,
		FS:              opt.FS,
		DEKCacheEntries: opt.DEKCacheEntries,
		BlockCacheBytes: opt.BlockCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	if err := loadPrincipals(a, filepath.Join(dir, PrincipalsFile)); err != nil {
		v.Close()
		return nil, err
	}
	return v, nil
}

func loadPrincipals(a *authz.Authorizer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("vaultcfg: reading principals: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("vaultcfg: %s:%d: want '<principal> <role,...>'", path, lineNo)
		}
		roles := strings.Split(fields[1], ",")
		if err := a.AddPrincipal(fields[0], roles...); err != nil {
			return fmt.Errorf("vaultcfg: %s:%d: %w", path, lineNo, err)
		}
	}
	return sc.Err()
}

// Grant appends (or replaces) a principal's roles in the principals file.
// The vault must be reopened for the change to take effect, mirroring how
// access-policy changes are deployed, not hot-patched.
func Grant(dir, principal string, roles []string) error {
	return grant(faultfs.OS{}, dir, principal, roles)
}

// grant is Grant over an explicit filesystem, so the crash-image test can
// cut power at every step of the rewrite.
func grant(fsys faultfs.FS, dir, principal string, roles []string) error {
	// Validate against the standard role set before persisting.
	known := map[string]bool{}
	for _, r := range authz.StandardRoles() {
		known[r.Name] = true
	}
	for _, r := range roles {
		if !known[r] {
			return fmt.Errorf("vaultcfg: unknown role %q", r)
		}
	}
	path := filepath.Join(dir, PrincipalsFile)
	existing := map[string]string{}
	if data, err := fsys.ReadFile(path); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) == 2 {
				existing[fields[0]] = fields[1]
			}
		}
	}
	existing[principal] = strings.Join(roles, ",")
	var sb strings.Builder
	sb.WriteString("# MedVault principals: <principal> <role,...>\n")
	ids := make([]string, 0, len(existing))
	for id := range existing {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&sb, "%s %s\n", id, existing[id])
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("vaultcfg: %w", err)
	}
	// Crash-atomic: a power cut mid-grant must leave the old principals file
	// or the complete new one, never an empty file that locks everyone out.
	if err := faultfs.WriteFileAtomic(fsys, path, []byte(sb.String()), 0o600); err != nil {
		return fmt.Errorf("vaultcfg: writing principals: %w", err)
	}
	return nil
}
