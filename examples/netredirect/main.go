// Netredirect: transparently redirect a server's network system calls to
// a user-space networking stack — the paper's use case (v) (§1): "
// transparently redirect network operations to custom user-space stacks".
//
// The unmodified nginx workload runs under K23 with a hook that emulates
// socket/bind/listen/accept/read/write against an in-process user-space
// stack, so the kernel's network path is never entered for data-plane
// calls. The example feeds requests through the user-space stack and
// shows the server serving them unmodified.
//
// Run: go run ./examples/netredirect
package main

import (
	"context"
	"fmt"
	"log"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// userStack is a toy user-space network stack: fixed-size request queue
// per connection, zero kernel involvement.
type userStack struct {
	listenFD  uint64
	connFD    uint64
	nextFD    uint64
	accepted  bool
	inbox     [][]byte
	responses [][]byte
	redirects int
}

func (s *userStack) handle(c *interpose.Call) (uint64, bool) {
	switch c.Num {
	case kernel.SysSocket:
		s.redirects++
		s.nextFD = 100
		s.listenFD = s.nextFD
		return s.listenFD, true
	case kernel.SysBind, kernel.SysListen:
		if c.Args[0] == s.listenFD {
			s.redirects++
			return 0, true
		}
	case kernel.SysAccept, kernel.SysAccept4:
		if c.Args[0] == s.listenFD && !s.accepted {
			s.redirects++
			s.accepted = true
			s.connFD = s.listenFD + 1
			return s.connFD, true
		}
	case kernel.SysRead, kernel.SysRecvfrom:
		if c.Args[0] == s.connFD {
			s.redirects++
			if len(s.inbox) == 0 {
				return 0, true // EOF: user-space stack drained
			}
			req := s.inbox[0]
			s.inbox = s.inbox[1:]
			if uint64(len(req)) > c.Args[2] {
				req = req[:c.Args[2]]
			}
			if err := c.Thread.Proc.AS.KStore(c.Args[1], req); err != nil {
				return ^uint64(13) + 1, true
			}
			return uint64(len(req)), true
		}
	case kernel.SysWrite, kernel.SysSendto:
		if c.Args[0] == s.connFD {
			s.redirects++
			resp, err := c.Thread.Proc.AS.KLoad(c.Args[1], int(c.Args[2]))
			if err != nil {
				return ^uint64(13) + 1, true
			}
			s.responses = append(s.responses, resp)
			return c.Args[2], true
		}
	}
	return 0, false // everything else reaches the kernel normally
}

func main() {
	w := interpose.NewWorld()
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		log.Fatal(err)
	}

	// Offline profile of the nginx worker (kernel networking, §5.1).
	logPath, _, err := machine.Offline(context.Background(), w, apps.NginxPath, []string{"nginx", "0"}, 5)
	if err != nil {
		log.Fatal(err)
	}

	// Online: the same worker, with its network syscalls redirected to
	// the user-space stack. Three requests are preloaded.
	stack := &userStack{}
	for i := 0; i < 3; i++ {
		stack.inbox = append(stack.inbox, []byte(fmt.Sprintf("GET /req%d HTTP/1.1", i)))
	}
	k23 := core.New(interpose.Config{Hook: stack.handle}, logPath)
	p, err := machine.Exec(context.Background(), w, k23, apps.NginxPath, []string{"nginx", "0"}, 0, 2_000_000_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("nginx worker exit: %s (served %d requests)\n", p.Exit, p.Exit.Code)
	fmt.Printf("network syscalls redirected to the user-space stack: %d\n", stack.redirects)
	fmt.Printf("responses captured by the user-space stack: %d", len(stack.responses))
	for i, r := range stack.responses {
		fmt.Printf("\n  response %d: %d bytes", i, len(r))
	}
	fmt.Println()
	st := k23.Stats(p)
	fmt.Printf("interposition: %d ptrace + %d rewritten + %d sud — all without modifying nginx\n",
		st.Ptraced, st.Rewritten, st.SUD)
}
