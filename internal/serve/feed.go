package serve

import "sync"

// feedBuffer is each subscriber channel's capacity: room for the burst of
// progress events a fast search publishes between two writes of a slow
// SSE client. Past it the oldest buffered events are dropped, so the
// buffer bounds memory per subscriber, never what it eventually sees last.
const feedBuffer = 64

// feed is an append-only event history with live subscribers: the stream
// behind a job's and a batch's SSE endpoints. It has no lock of its own;
// its owner guards it with the owner's mutex, so an event and the state
// change it reports are published atomically.
type feed[E any] struct {
	history []E
	subs    map[chan E]struct{}
}

// publishLocked appends ev to the history and fans it out; the owner's
// mutex must be held. Subscriber channels are buffered; when one is full
// its oldest buffered event is dropped for the newest, so a slow consumer
// skips intermediate events but always observes the last (terminal) one.
func (f *feed[E]) publishLocked(ev E) {
	f.history = append(f.history, ev)
	for ch := range f.subs {
		select {
		case ch <- ev:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
	}
}

// subscribe returns the history so far plus a live channel for what
// follows, both taken under mu, the owner's mutex, so nothing falls
// between the replay and the channel. Call unsub when done.
func (f *feed[E]) subscribe(mu *sync.Mutex) (replay []E, ch chan E, unsub func()) {
	ch = make(chan E, feedBuffer)
	mu.Lock()
	replay = append([]E(nil), f.history...)
	if f.subs == nil {
		f.subs = make(map[chan E]struct{})
	}
	f.subs[ch] = struct{}{}
	mu.Unlock()
	return replay, ch, func() {
		mu.Lock()
		delete(f.subs, ch)
		mu.Unlock()
	}
}
