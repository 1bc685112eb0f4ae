// Package clean exercises nodeprecated's one exemption: deprecated
// shims layering on deprecated shims.
package clean

// Get is the legacy lookup.
//
// Deprecated: use GetContext.
func Get(k string) string { return k }

// GetContext supersedes Get and stands on its own.
func GetContext(k string) string { return k }

// OldLookup layers one shim on another, which shims may do.
//
// Deprecated: use GetContext.
func OldLookup(k string) string { return Get(k) }
