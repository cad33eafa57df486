// std.go exercises hotalloc's list of allocating standard-library
// calls: one called directly in a hot function and one reached
// through a helper are both findings.
package radio

import (
	"net/netip"
	"strconv"
)

// Beacon is a second type whose methods carry designated hot names;
// the rule matches methods by bare name.
type Beacon struct{}

// Sample reaches netip.Addr.String through a helper, the way an
// address-keyed lookup would.
func (Beacon) Sample(a [4]byte) string {
	return addrKey(a) // want `call in hot function Sample reaches an allocating helper \(addrKey: \(net/netip\.Addr\)\.String`
}

func addrKey(a [4]byte) string { return netip.AddrFrom4(a).String() }

// Mean calls strconv.Itoa directly.
func (Beacon) Mean(n int) string {
	return strconv.Itoa(n) // want `strconv\.Itoa in hot function Mean allocates`
}
