package guard

import (
	"fmt"
	"sync"
)

// Failpoints are named crash sites for fault-injection testing: production
// code plants Failpoint("pkg.site") calls at interesting spots; a test (or
// a diagnostic flag like serbench -faultinject) arms a name, and the next
// visit panics. The panic is expected to be caught by a surrounding
// guard.Run and surface as ErrInternal — which is exactly the path the
// injection exercises.
var failpoints = struct {
	sync.Mutex
	armed map[string]struct{}
}{armed: map[string]struct{}{}}

// ArmFailpoint makes the named failpoint panic on every visit until
// disarmed.
func ArmFailpoint(name string) {
	failpoints.Lock()
	defer failpoints.Unlock()
	failpoints.armed[name] = struct{}{}
}

// DisarmFailpoint disables the named failpoint.
func DisarmFailpoint(name string) {
	failpoints.Lock()
	defer failpoints.Unlock()
	delete(failpoints.armed, name)
}

// Failpoint panics with a recognizable value if name is armed. It is a
// no-op (one cheap map read) otherwise.
func Failpoint(name string) {
	failpoints.Lock()
	_, armed := failpoints.armed[name]
	failpoints.Unlock()
	if armed {
		panic(fmt.Sprintf("guard: injected fault at %q", name))
	}
}
