package kernel

// Test-only access for the external kernel_test package.

// WakePending reports whether t still holds a wake condition: it lets
// tests assert that interrupting a blocked syscall (restart or EINTR
// abort alike) clears the condition rather than leaking it into the
// thread's next block.
func (t *Thread) WakePending() bool { return t.wakeDesc.kind != wakeNone }

// PostSignal sends sig to p from host context (no calling thread).
// Delivery follows the same rules as kill(2): SA_RESTART decides whether
// a blocked syscall restarts or aborts with EINTR.
func (k *Kernel) PostSignal(p *Process, sig int) {
	k.signalProcess(nil, p, sig)
}

// Runnable reports whether any thread in any running process can run.
// It walks the run queue in PID order, so the wake marks threadReady
// emits on the way come in the same order on every run.
func (k *Kernel) Runnable() bool {
	for _, p := range k.live {
		if stopped(p) {
			continue
		}
		for _, t := range p.Threads {
			if k.threadReady(t) {
				return true
			}
		}
	}
	return false
}
