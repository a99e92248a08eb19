package kernel

import "fmt"

// The socket layer models localhost client/server traffic with a
// simplified ABI (documented divergence from Linux):
//
//	fd = socket(0, 0, 0)
//	bind(fd, port)          // port passed directly, no sockaddr
//	listen(fd, backlog)
//	cfd = accept(fd)        // blocks until a connection is pending
//	read(cfd, buf, n)       // one request (0 = client closed)
//	write(cfd, buf, n)      // one response; completes the request
//
// A host-side workload generator (internal/bench) preloads connections
// with a request count; after each response the next request becomes
// readable, modelling a keepalive benchmarking client such as wrk.

// conn is one simulated TCP connection.
type conn struct {
	// in holds bytes the server can read.
	in []byte
	// request is the canonical request payload.
	request []byte
	// remaining counts requests still to be issued on this connection.
	remaining int
	// completed counts fully answered requests.
	completed int
	// awaiting is true between the server reading a request and its
	// first response write; chunked responses (multiple writes) count
	// as one completion.
	awaiting bool
	// closed marks the client side closed; reads return 0.
	closed bool
	// onResponse, if set, observes each response write.
	onResponse func(resp []byte)
}

// maybeArm makes the next request readable once the previous one is
// fully answered — a pipelining-1 keepalive client (wrk's model).
func (c *conn) maybeArm() {
	if !c.awaiting && c.remaining > 0 && len(c.in) == 0 {
		c.in = append(c.in, c.request...)
		c.remaining--
		c.awaiting = true
	}
}

func (c *conn) readable() bool {
	c.maybeArm()
	return len(c.in) > 0 || c.closed || (c.remaining == 0 && !c.awaiting)
}

func (c *conn) closeServerSide() { c.closed = true }

// listener is a listening socket.
type listener struct {
	port    int
	backlog []*conn
	// accepted counts connections handed to the application.
	accepted int
	// completed aggregates completed requests across all conns.
	completed int
}

func (l *listener) pending() bool { return len(l.backlog) > 0 }

// netStack is the per-kernel socket registry.
type netStack struct {
	listeners map[int]*listener // port -> listener
}

func newNetStack() *netStack {
	return &netStack{listeners: make(map[int]*listener)}
}

// InjectConn queues a client connection on port carrying `requests`
// back-to-back copies of request. Returns an error if nothing listens on
// the port. The optional onResponse observes each response.
func (k *Kernel) InjectConn(port int, request []byte, requests int, onResponse func([]byte)) error {
	l, ok := k.net.listeners[port]
	if !ok {
		return fmt.Errorf("kernel: no listener on port %d", port)
	}
	c := &conn{
		request:    append([]byte(nil), request...),
		remaining:  requests,
		onResponse: onResponse,
	}
	l.backlog = append(l.backlog, c)
	return nil
}

// ListenerStats returns (accepted connections, completed requests) for
// the listener on port.
func (k *Kernel) ListenerStats(port int) (accepted, completed int) {
	l, ok := k.net.listeners[port]
	if !ok {
		return 0, 0
	}
	return l.accepted, l.completed
}

func (k *Kernel) sysSocket(t *Thread, _ [6]uint64) (uint64, bool) {
	return k.allocFD(t.Proc, &fd{kind: fdSocket}), false
}

func (k *Kernel) sysBind(t *Thread, a [6]uint64) (uint64, bool) {
	n, port := int(a[0]), int(a[1])
	f, ok := t.Proc.fds[n]
	if !ok {
		return errno(EBADF), false
	}
	switch f.kind {
	case fdSocket:
	case fdListener, fdConn:
		// Already listening or connected: the socket has an address.
		return errno(EINVAL), false
	default:
		// bind on a non-socket descriptor is ENOTSOCK, not EBADF.
		return errno(ENOTSOCK), false
	}
	if f.listener != nil {
		return errno(EINVAL), false // already bound
	}
	if _, used := k.net.listeners[port]; used {
		return errno(EADDRINUSE), false
	}
	f.listener = &listener{port: port}
	return 0, false
}

func (k *Kernel) sysListen(t *Thread, a [6]uint64) (uint64, bool) {
	n := int(a[0])
	f, ok := t.Proc.fds[n]
	if !ok {
		return errno(EBADF), false
	}
	switch f.kind {
	case fdListener:
		return 0, false // listen on a listening socket is idempotent
	case fdSocket:
	case fdConn:
		return errno(EINVAL), false
	default:
		return errno(ENOTSOCK), false
	}
	if f.listener == nil {
		// A socket fd that was never bound: no address to listen on.
		// (Linux would auto-bind an ephemeral port; the simulated stack
		// requires an explicit bind — see "Known modelling deviations".)
		return errno(EINVAL), false
	}
	f.kind = fdListener
	k.net.listeners[f.listener.port] = f.listener
	return 0, false
}

// sysAccept returns a connection fd, blocking when the backlog is empty
// (restart vs EINTR on interruption per the handler's SA_RESTART flag).
func (k *Kernel) sysAccept(t *Thread, a [6]uint64) (ret uint64, blocked bool) {
	n := int(a[0])
	p := t.Proc
	f, ok := p.fds[n]
	if !ok {
		return errno(EBADF), false
	}
	switch f.kind {
	case fdListener:
	case fdSocket, fdConn:
		// A socket that is not listening: EINVAL per accept(2).
		return errno(EINVAL), false
	default:
		return errno(ENOTSOCK), false
	}
	l := f.listener
	if !l.pending() {
		if k.chaosBlockEINTR(t, SysAccept) {
			return errno(EINTR), false
		}
		k.blockThread(t, l.pending, wakeDesc{kind: wakeAcceptFD, arg: n})
		return 0, true
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	l.accepted++
	cf := &fd{kind: fdConn, conn: c, listener: l}
	return k.allocFD(p, cf), false
}

// connRead reads one request, blocking until data or EOF. n is the fd
// number (recorded in the wake descriptor so a checkpoint can rebuild
// the wake closure against the restored connection).
func (k *Kernel) connRead(t *Thread, n int, f *fd, buf, count uint64) (ret uint64, blocked bool) {
	c := f.conn
	if c == nil {
		// A conn fd whose peer never materialized: no connection, not a
		// bad descriptor.
		return errno(ENOTCONN), false
	}
	if !c.readable() {
		if k.chaosBlockEINTR(t, SysRead) {
			return errno(EINTR), false
		}
		k.blockThread(t, c.readable, wakeDesc{kind: wakeConnReadFD, arg: n})
		return 0, true
	}
	c.maybeArm()
	if len(c.in) == 0 {
		return 0, false // EOF
	}
	chunk := c.in
	if uint64(len(chunk)) > count {
		chunk = chunk[:count]
	}
	chunk = k.chaosShortRead(t, chunk)
	if !k.copyOut(t, buf, chunk) {
		return errno(EFAULT), false
	}
	c.in = c.in[len(chunk):]
	return uint64(len(chunk)), false
}

// connWrite sends one response and re-arms the connection with the next
// request (keepalive client model).
func (k *Kernel) connWrite(t *Thread, f *fd, data []byte) uint64 {
	c := f.conn
	if c == nil {
		return errno(ENOTCONN)
	}
	if c.onResponse != nil {
		c.onResponse(data)
	}
	if c.awaiting {
		c.awaiting = false
		c.completed++
		if f.listener != nil {
			f.listener.completed++
		}
	}
	return uint64(len(data))
}
