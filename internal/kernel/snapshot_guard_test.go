package kernel

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"k23/internal/cpu"
)

// guardExempt lists, per state struct, the fields
// TestSnapshotFieldGuard does not perturb, each with the reason: host
// hooks and configuration, derived state, pointers guarded through
// another entry, and statistics that are checkpointed but deliberately
// not hashed. The guard perturbs every other field.
var guardExempt = map[string]map[string]string{
	"Kernel": {
		"FS":             "pointer: the tree is captured as a vfs.FSState and hashed through it",
		"Cost":           "configuration set at construction",
		"Quantum":        "configuration set at construction",
		"Sfip":           "host hook: its state is captured by SnapshotHostState and hashed by HashState",
		"ProfileHook":    "host hook",
		"DecodeCacheOff": "configuration: the decode cache is transparent",
		"JITOff":         "configuration: the JIT is transparent (jit ≡ interp)",
		"Trace":          "host observer: the recorder saves and restores the trace hash",
		"Exec":           "host hook",
		"procs":          "walked through order; each Process is guarded on its own",
		"live":           "derived: Restore rebuilds the run queue from order and process states",
		"reap":           "derived: set by Restore so the next round compacts live and vvars",
		"profileEvery":   "sampling configuration (SetProfile), not guest state",
		"net":            "pointer: its listeners are guarded as listener",
		"chaos":          "pointer: guarded as chaosState",
		"StopAtSeq":      "run control set by the caller",
		"stopHit":        "run control, cleared by Restore",
		"events":         "host sinks of the event stream",
		"phases":         "host sinks of the phase side-stream",
		"ev":             "scratch: the event being dispatched",
		"pm":             "scratch: the phase mark being dispatched",
		"lines":          "decoded-line cache keyed by line bytes, a pure function of them",
	},
	"Process": {
		"AS":          "pointer: contents captured as a mem.ASState and hashed through it",
		"Parent":      "identity: hashed as the parent's PID",
		"tracer":      "opaque host state: captured through HostState, which has no hash",
		"LoaderState": "opaque host state: captured through HostState, which has no hash",
		"Interposer":  "opaque host state: captured through HostState, which has no hash",
	},
	"Thread": {
		"Proc": "identity",
		"Core": "pointer: architectural state captured as a cpu.CoreState and hashed through it",
	},
	"cpu.Core": {
		"AS":             "pointer: the thread's address space, captured with its process",
		"LastCMC":        "pointer: cloned into CoreState and hashed through it",
		"DecodeCacheOff": "configuration: the decode cache is transparent",
		"JITOff":         "configuration: the JIT is transparent (jit ≡ interp)",
		"DecodeStats":    "checkpointed but not hashed, so jit and interp runs hash alike",
		"JITStats":       "checkpointed but not hashed, so jit and interp runs hash alike",
		"Trace":          "host observer: the recorder saves and restores the trace hash",
		"TID":            "copy of Thread.TID, set when the core is made",
		"Lines":          "decoded-line cache keyed by line bytes, a pure function of them",
		"pages":          "code cache: its resident I-cache lines are captured as CoreState.ICache",
		"lastPN":         "code cache lookup memo, restarted cold",
		"lastPage":       "code cache lookup memo, restarted cold",
		"storePN":        "code cache lookup memo, restarted cold",
		"storePage":      "code cache lookup memo, restarted cold",
		"flushEpoch":     "code cache epoch, advanced by every restore",
		"hotN":           "JIT anchor count, restarted cold",
		"jitSeq":         "JIT validation epoch, advanced by every restore",
	},
	"fd": {
		"listener": "pointer: guarded as listener",
		"conn":     "pointer: guarded as conn",
	},
	"conn": {
		"onResponse": "host callback, carried by reference",
	},
	"listener": {},
	"chaosState": {
		"prof":     "configuration set at construction",
		"scripted": "replay configuration set at construction",
		"script":   "replay configuration set at construction",
	},
}

// guardWorld builds a kernel in which every guarded struct has an
// instance and every slice and map the guard perturbs is non-empty.
func guardWorld() *Kernel {
	k := New(WithChaos(7, DefaultChaosProfile()))
	k.chaos.hits = []ChaosDecision{{Q: 1, Kind: "eintr", Val: 4}}
	parent := k.NewProcess("/bin/parent", []string{"parent"}, nil)
	p := k.NewProcess("/bin/guard", []string{"guard", "-v"}, []string{"A=1"})
	p.Parent = parent
	th := k.NewThread(p, cpu.Context{RIP: 0x1000})
	th.sigFrames = []sigFrame{{ucontextAddr: 0x2000, savedRSP: 0x3000}}
	p.Stdout, p.Stderr = []byte("out"), []byte("err")
	p.sigHandlers[10] = sigAction{handler: 0x4000}
	p.seccomp = []*seccompFilter{{rules: []seccompRule{{nr: SysGetpid}}, defaultAction: 1}}
	p.Hostcalls[100] = &Hostcall{Name: "hc", Cost: 5}
	k.RegisterVvar(p, 0x5000)
	l := &listener{port: 80, backlog: []*conn{{request: []byte("next"), remaining: 1}}}
	k.net.listeners[80] = l
	p.fds[3] = &fd{kind: fdListener, listener: l}
	p.fds[4] = &fd{kind: fdConn, listener: l, conn: &conn{in: []byte("req"), request: []byte("req"), remaining: 2}}
	p.fds[5] = &fd{kind: fdFile, path: "/data/f", data: []byte("data")}
	p.nextFD = 6
	return k
}

// guardTargets locates one instance of each guarded struct. Restore
// replaces fds, conns and listeners, so they are looked up afresh.
var guardTargets = []struct {
	name string
	get  func(k *Kernel) any
}{
	{"Kernel", func(k *Kernel) any { return k }},
	{"Process", func(k *Kernel) any { return k.procs[2] }},
	{"Thread", func(k *Kernel) any { return k.procs[2].Threads[0] }},
	{"cpu.Core", func(k *Kernel) any { return k.procs[2].Threads[0].Core }},
	{"fd", func(k *Kernel) any { return k.procs[2].fds[5] }},
	{"conn", func(k *Kernel) any { return k.procs[2].fds[4].conn }},
	{"listener", func(k *Kernel) any { return k.net.listeners[80] }},
	{"chaosState", func(k *Kernel) any { return k.chaos }},
}

// field returns the settable field at path (field indexes; -1 is
// element 0 of an array) under the struct x points to.
func field(x any, path []int) reflect.Value {
	v := reflect.ValueOf(x).Elem()
	for _, i := range path {
		if i < 0 {
			v = v.Index(0)
		} else {
			v = v.Field(i)
		}
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	return v
}

// leaves lists the perturbable paths under a value of type typ: scalars,
// element 0 of arrays, each field of nested structs, and whole slices
// and maps. It returns false for a type with no value semantics
// (pointer, func, interface, channel).
func leaves(typ reflect.Type, path []int) ([][]int, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Func, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		return nil, false
	case reflect.Array:
		return leaves(typ.Elem(), append(path[:len(path):len(path)], -1))
	case reflect.Struct:
		var out [][]int
		for i := 0; i < typ.NumField(); i++ {
			sub, ok := leaves(typ.Field(i).Type, append(path[:len(path):len(path)], i))
			if !ok {
				return nil, false
			}
			out = append(out, sub...)
		}
		return out, true
	}
	return [][]int{path}, true
}

// perturb changes v: scalars move by one step, a slice grows by a copy
// of its last element, a map gains a copy of its smallest-key entry
// under a new key. It reports false for an empty map.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		elem := reflect.Zero(v.Type().Elem())
		if v.Len() > 0 {
			elem = v.Index(v.Len() - 1)
		}
		v.Set(reflect.Append(v, elem))
	case reflect.Map:
		keys := v.MapKeys()
		if len(keys) == 0 {
			return false
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		fresh := reflect.New(v.Type().Key()).Elem()
		fresh.SetInt(keys[len(keys)-1].Int() + 1000)
		v.SetMapIndex(fresh, v.MapIndex(keys[0]))
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
	return true
}

// copyValue copies v deeply enough that perturbing v in place leaves
// the copy unchanged.
func copyValue(v reflect.Value) any {
	switch {
	case v.Kind() == reflect.Slice && !v.IsNil():
		return reflect.AppendSlice(reflect.MakeSlice(v.Type(), 0, v.Len()), v).Interface()
	case v.Kind() == reflect.Map && !v.IsNil():
		m := reflect.MakeMap(v.Type())
		for it := v.MapRange(); it.Next(); {
			m.SetMapIndex(it.Key(), it.Value())
		}
		return m.Interface()
	}
	return v.Interface()
}

// TestSnapshotFieldGuard holds the rule "checkpointed ⇔ hashed" for
// every field of Kernel, Process, Thread, a thread's cpu.Core, fd,
// conn, listener and chaosState. Each field that is not on guardExempt is perturbed in
// place in a fresh world; the state hash must change, and restoring a
// checkpoint taken before the perturbation must bring the field and
// the hash back. A reference-typed field (pointer, func, interface)
// must be exempt with a reason, so an added field fails until it is
// either checkpointed and hashed or exempted.
func TestSnapshotFieldGuard(t *testing.T) {
	for _, target := range guardTargets {
		exempt := guardExempt[target.name]
		typ := reflect.TypeOf(target.get(guardWorld())).Elem()
		for name := range exempt {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("%s.%s: exempt but no such field", target.name, name)
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if _, ok := exempt[f.Name]; ok {
				continue
			}
			paths, ok := leaves(f.Type, []int{i})
			if !ok {
				t.Errorf("%s.%s (%s): reference-typed field is neither value-copied nor exempt", target.name, f.Name, f.Type)
				continue
			}
			for _, path := range paths {
				k := guardWorld()
				snap, err := k.Checkpoint(nil)
				if err != nil {
					t.Fatal(err)
				}
				h0 := k.StateHash()
				v := field(target.get(k), path)
				before := copyValue(v)
				if !perturb(v) {
					t.Errorf("%s.%s: guardWorld leaves it empty", target.name, f.Name)
					continue
				}
				if k.StateHash() == h0 {
					t.Errorf("%s.%s %v: perturbing it does not change the state hash", target.name, f.Name, path)
				}
				k.Restore(snap)
				if got := field(target.get(k), path).Interface(); !reflect.DeepEqual(got, before) {
					t.Errorf("%s.%s %v: Restore left %v, want %v", target.name, f.Name, path, got, before)
				}
				if k.StateHash() != h0 {
					t.Errorf("%s.%s %v: state hash after Restore differs", target.name, f.Name, path)
				}
			}
		}
	}
}
