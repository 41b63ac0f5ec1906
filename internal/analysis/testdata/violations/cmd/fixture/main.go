// Command fixture is the non-test caller that keeps the fixture's packages
// live, so deadapi reports only what the fixture seeds.
package main

import (
	"net/http"

	"repro/api"
	"repro/chans"
	"repro/ctxapi"
	"repro/internal/dead"
	"repro/internal/exec"
	"repro/leaky"
	"repro/locks"
	"repro/metricnames"
	"repro/retry"
	"repro/sleepy"
	"repro/wire"
)

// seeded holds the entry points the other analyzers' fixtures seed; no
// program calls them, and deadapi is not what they test.
var seeded = []any{
	chans.NewQ, (*chans.Q).Close, (*chans.Q).Push, (*chans.Q).TryPush, (*chans.Q).Drain, chans.Produce,
	ctxapi.IgnoresCtx, ctxapi.Orphan, ctxapi.Shim, ctxapi.Threads,
	leaky.RecvLeak, leaky.SelectLeak, leaky.SendLeak, leaky.SendHandshake, leaky.QuitSelect, leaky.CtxWorker, leaky.RangeClosed,
	locks.ForwardAB, locks.ReverseBA, locks.InlineCD, locks.InlineDC, locks.ForwardEF, locks.ReverseFE,
	locks.BothGH, locks.AlsoGH, locks.AllowedIJ, locks.AllowedJI,
	metricnames.Instruments,
	retry.DialForever, retry.WaitLoop, retry.DialJittered, retry.OneShotWait, retry.PacedLoop,
	sleepy.Ready,
	wire.Send, wire.Recv, wire.SendClean,
}

func main() {
	exec.Explode(dead.Measure(dead.Options{Side: 2}))
	exec.Tolerated()
	api.Serve(http.NewServeMux())
}
