package gram

import (
	"context"
	"fmt"
	"net"
	"sync"

	"gridauth/internal/jobcontrol"
)

// GT2 GRAM lets a client register a callback contact and receive job
// state changes as they happen. This implementation models callbacks as
// a subscription: the client dedicates an authenticated connection, the
// gatekeeper authorizes, audits and traces it like an information
// request, and then streams state-update messages until the job reaches
// a terminal state or the client hangs up.

// Additional message kinds for subscriptions.
const (
	MsgSubscribe   = "subscribe-request"
	MsgStateUpdate = "state-update"
)

// subscriber receives state updates for one job contact.
type subscriber struct {
	ch chan JobState
}

// watchHub fans cluster events out to subscribers. One hub per
// gatekeeper, fed by a single cluster subscription.
type watchHub struct {
	mu   sync.Mutex
	subs map[string][]*subscriber // job contact -> subscribers
	lrm  map[string]string        // scheduler job ID -> job contact
}

func newWatchHub(cluster *jobcontrol.Cluster) *watchHub {
	h := &watchHub{
		subs: make(map[string][]*subscriber),
		lrm:  make(map[string]string),
	}
	cluster.Subscribe(h.onEvent)
	return h
}

// register binds a scheduler job to its GRAM contact.
func (h *watchHub) register(lrmID, contact string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lrm[lrmID] = contact
}

// subscribe attaches a listener to a job contact.
func (h *watchHub) subscribe(contact string) *subscriber {
	s := &subscriber{ch: make(chan JobState, 8)}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs[contact] = append(h.subs[contact], s)
	return s
}

// unsubscribe detaches a listener.
func (h *watchHub) unsubscribe(contact string, s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	list := h.subs[contact]
	for i, v := range list {
		if v == s {
			h.subs[contact] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(h.subs[contact]) == 0 {
		delete(h.subs, contact)
	}
}

// onEvent translates scheduler events into GRAM states and fans out.
// Slow subscribers lose intermediate updates rather than blocking the
// scheduler (the channel is bounded; terminal states overwrite by being
// re-delivered through the final drain in the stream loop).
func (h *watchHub) onEvent(e jobcontrol.Event) {
	state, ok := eventToState(e.Kind)
	if !ok {
		return
	}
	h.mu.Lock()
	contact, ok := h.lrm[e.JobID]
	if !ok {
		h.mu.Unlock()
		return
	}
	subs := append([]*subscriber(nil), h.subs[contact]...)
	h.mu.Unlock()
	for _, s := range subs {
		select {
		case s.ch <- state:
		default: // drop rather than stall the scheduler
		}
	}
}

func eventToState(k jobcontrol.EventKind) (JobState, bool) {
	switch k {
	case jobcontrol.EventQueued, jobcontrol.EventResumed:
		return StatePending, true
	case jobcontrol.EventStarted:
		return StateActive, true
	case jobcontrol.EventSuspended:
		return StateSuspended, true
	case jobcontrol.EventCompleted:
		return StateDone, true
	case jobcontrol.EventCanceled:
		return StateCanceled, true
	case jobcontrol.EventFailed:
		return StateFailed, true
	default:
		return "", false
	}
}

// handleSubscribe authorizes a state subscription through dispatch, as
// an information request on the job, and streams updates on the
// connection until the job reaches a terminal state or the client
// disconnects. The connection is dedicated to the stream afterwards.
func (g *Gatekeeper) handleSubscribe(ctx context.Context, peer *Peer, msg Message, conn net.Conn) {
	reply, jmi := g.dispatch(ctx, peer, &msg)
	if jmi == nil {
		_ = WriteMessage(conn, &reply)
		return
	}
	sub := g.hub.subscribe(jmi.Contact)
	defer g.hub.unsubscribe(jmi.Contact, sub)

	// Initial snapshot so the subscriber has a starting state.
	state, detail := jmi.State()
	if err := WriteMessage(conn, &Message{
		Type: MsgStateUpdate, State: string(state), Owner: string(jmi.Owner), Detail: detail,
	}); err != nil {
		return
	}
	if terminalState(state) {
		return
	}
	// Detect client hangup by reading in the background: any read result
	// (EOF included) ends the stream.
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		buf := make([]byte, 1)
		_, _ = conn.Read(buf)
	}()
	for {
		select {
		case s := <-sub.ch:
			if err := WriteMessage(conn, &Message{
				Type: MsgStateUpdate, State: string(s), Owner: string(jmi.Owner),
			}); err != nil {
				return
			}
			if terminalState(s) {
				return
			}
		case <-gone:
			return
		case <-ctx.Done():
			return
		}
	}
}

func terminalState(s JobState) bool {
	switch s {
	case StateDone, StateFailed, StateCanceled:
		return true
	default:
		return false
	}
}

// Watch subscribes to a job's state changes on a dedicated connection.
// It returns a channel of states (closed when the job reaches a terminal
// state or the watch stops) and a stop function. The first value is the
// job's current state.
func (c *Client) Watch(contact string) (<-chan JobState, func(), error) {
	c.mu.Lock()
	conn, br, _, err := c.open() //authlint:ignore locksafe open reads the retry policy and moves the failover cursor, both guarded by c.mu; round trips dial under it too
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	if err := WriteMessage(conn, &Message{Type: MsgSubscribe, JobContact: contact}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	first, err := ReadMessage(br)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("gram: read subscription reply: %w", err)
	}
	if first.Err != nil {
		conn.Close()
		return nil, nil, first.Err
	}
	out := make(chan JobState, 8)
	done := make(chan struct{})
	stop := sync.OnceFunc(func() {
		close(done)
		conn.Close()
	})
	deliver := func(s JobState) bool {
		select {
		case out <- s:
			return true
		case <-done:
			return false
		}
	}
	go func() {
		defer close(out)
		defer conn.Close()
		if !deliver(JobState(first.State)) || terminalState(JobState(first.State)) {
			return
		}
		for {
			msg, err := ReadMessage(br)
			if err != nil {
				return
			}
			if msg.Type != MsgStateUpdate {
				continue
			}
			if !deliver(JobState(msg.State)) || terminalState(JobState(msg.State)) {
				return
			}
		}
	}()
	return out, stop, nil
}
