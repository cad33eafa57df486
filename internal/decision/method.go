// Package decision implements the Decision Module (§IV-C): an
// extensible framework of legitimacy-checking methods, with the
// Bluetooth-RSSI method as the primary implementation — per-device
// calibrated thresholds, multi-user group queries, and the
// floor-level tracker that classifies stairway RSSI traces by the
// slope and y-intercept of their linear fit (Fig. 10).
package decision

import (
	"time"

	"voiceguard/internal/trace"
)

// Request asks the Decision Module whether the voice command arriving
// now is legitimate.
type Request struct {
	At      time.Time
	Speaker string          // speaker identifier (multi-speaker deployments)
	Command trace.CommandID // lifecycle trace ID of the held command
}

// Result is the module's verdict.
type Result struct {
	Legitimate bool
	Reason     Reason
	At         time.Time // simulated completion time

	// PathDead marks a verdict produced without evidence because the
	// query path itself failed — every push send was refused, or the
	// query timed out with no device ever replying. Legitimate is
	// false in that case (the method has no grounds to pass anyone);
	// the guard's DegradedPolicy decides whether held traffic is
	// released or blocked anyway.
	PathDead bool
}

// Reason names why a method reached its verdict. The numbers behind
// an RSSI verdict (device, RSSI, threshold, reply counts, failed
// sends) are attributes of the same command's decision trace events
// (rssi_reply, query_timeout, corrupt_reply, path_dead).
type Reason uint8

// The verdict reasons. The zero value is a verdict whose method gave
// no reason, such as the wire plane's DecisionFunc.
const (
	ReasonUnspecified    Reason = iota
	ReasonPassed                // a device replied above its threshold, on the speaker's floor
	ReasonNoneNear              // every device replied, none passed (corrupt replies included)
	ReasonPartialTimeout        // the query timed out after some devices replied
	ReasonNoReply               // the query timed out with no reply at all (PathDead)
	ReasonPathDead              // every push send failed (PathDead)
	ReasonPushError             // the push request was refused before any send
	ReasonNoDevices             // no device is registered with the method
	ReasonStatic                // StaticMethod's fixed verdict
)

var reasonNames = [...]string{
	ReasonUnspecified:    "unspecified",
	ReasonPassed:         "passed",
	ReasonNoneNear:       "none_near",
	ReasonPartialTimeout: "partial_timeout",
	ReasonNoReply:        "no_reply",
	ReasonPathDead:       "path_dead",
	ReasonPushError:      "push_error",
	ReasonNoDevices:      "no_devices",
	ReasonStatic:         "static",
}

// String returns the reason's trace attribute value.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "invalid"
}

// Method checks the legitimacy of a voice command. Implementations
// complete asynchronously on the simulation clock and must call done
// exactly once.
type Method interface {
	Name() string
	Check(req Request, done func(Result))
}

// StaticMethod is a trivial Method returning a fixed verdict — the
// package's second implementation, demonstrating the extensible
// framework (vgreplay's verdict, and a test stub).
type StaticMethod struct {
	MethodName string
	Allow      bool
}

var _ Method = (*StaticMethod)(nil)

// Name returns the method name.
func (m *StaticMethod) Name() string { return m.MethodName }

// Check immediately reports the fixed verdict.
func (m *StaticMethod) Check(req Request, done func(Result)) {
	done(Result{Legitimate: m.Allow, Reason: ReasonStatic, At: req.At})
}
