// Package flagged exercises nodeprecated: non-test, non-shim callers
// of functions carrying the conventional Deprecated: marker, the
// XContext → X delegation included.
package flagged

// OldGet is the legacy lookup.
//
// Deprecated: use GetContext.
func OldGet(k string) string { return Get(k) }

// Get is the context-free lookup.
//
// Deprecated: use GetContext.
func Get(k string) string { return k }

// GetContext supersedes Get, yet still delegates to it.
func GetContext(k string) string {
	return Get(k) // want "use of deprecated Get"
}

// Lookup still reaches for the deprecated form.
func Lookup(k string) string {
	return OldGet(k) // want "use of deprecated OldGet"
}
