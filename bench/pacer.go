package main

import (
	"syscall"
	"time"
)

// tick is the open-loop send granularity.
const tick = time.Millisecond

// schedule is an open-loop send plan: n tuples, tuple i due i/rate seconds
// after the phase starts. The plan is a pure function of (rate, n), and the
// rates are constants of the benchmark, so parent and change commits are
// offered exactly the same load.
type schedule struct {
	rate int // tuples per second
	n    int
}

// due is tuple i's offset from the phase start.
func (s schedule) due(i int) time.Duration {
	return time.Duration(int64(i) * int64(time.Second) / int64(s.rate))
}

// dueBy is how many tuples are due at or before tick k.
func (s schedule) dueBy(k int) int {
	n := int(int64(k)*int64(s.rate)*int64(tick)/int64(time.Second)) + 1
	if n > s.n {
		n = s.n
	}
	return n
}

// ticks is the number of ticks the plan spans (the last one sends the last
// tuple).
func (s schedule) ticks() int {
	if s.n == 0 {
		return 0
	}
	return int(s.due(s.n-1)/tick) + 2
}

// clock abstracts time for the pacer's unit test.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// wallClock sleeps with nanosleep(2): time.Sleep wakes through the
// netpoller, whose millisecond timeout rounds a sub-millisecond wait up to
// a whole tick (median overshoot 0.55 ms against 0.09 ms on the testbed).
var wallClock = clock{now: time.Now, sleep: func(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}}

// pace writes chunk k at start + k·tick. Each wake-up is computed from the
// chunk's own due time, never from the previous sleep, so oversleeping one
// tick shortens the next wait instead of pushing the whole plan back; a
// sender that falls behind writes the overdue chunks back to back. It
// returns how late each non-empty chunk's write began.
func pace(c clock, start time.Time, chunks [][]byte, write func([]byte) error) ([]time.Duration, error) {
	lags := make([]time.Duration, 0, len(chunks))
	for k, chunk := range chunks {
		at := start.Add(time.Duration(k) * tick)
		if d := at.Sub(c.now()); d > 0 {
			c.sleep(d)
		}
		if len(chunk) == 0 {
			continue
		}
		lags = append(lags, c.now().Sub(at))
		if err := write(chunk); err != nil {
			return lags, err
		}
	}
	return lags, nil
}
