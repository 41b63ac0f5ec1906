// Serving example: an HTTP model server over one shared Session and one
// batched dcf.Server — the paper's §3 deployment shape (a multi-tenant
// server driving one graph with many concurrent steps), with adaptive
// request batching coalescing concurrent predictions into single batched
// executor steps.
//
// Every request handler calls the same Server from its own goroutine; the
// batcher stacks concurrent requests' feeds along axis 0, runs one step,
// and slices the scores back per request. r.Context() threads each
// client's disconnect/deadline into the batcher, so an abandoned request
// is dropped from its micro-batch without disturbing its neighbors.
//
// The HTTP server itself is hardened the way a production front end must
// be: header/write timeouts against slowloris clients, and signal-driven
// graceful shutdown that drains in-flight requests and then the batcher.
// (cmd/dcfserve is the full production server — checkpoint restore,
// /healthz, /metrics; this example keeps the whole loop self-driving
// and small.)
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/dcf"
)

const dim = 16

// buildModel compiles score = softmax(tanh(x @ W1) @ W2) for [batch,dim]
// inputs into a batched Server. In a real server the weights would come
// from a checkpoint (Session.RestoreVariables — see cmd/dcfserve).
func buildModel() (*dcf.Server, error) {
	g := dcf.NewGraph()
	x := g.PlaceholderTyped("x", dcf.Float, -1, dim)
	w1 := g.Const(dcf.GlorotUniform(1, dim, dim))
	w2 := g.Const(dcf.GlorotUniform(2, dim, 4))
	scores := x.MatMul(w1).Tanh().MatMul(w2).Softmax()
	if err := g.Err(); err != nil {
		return nil, err
	}
	sess := dcf.NewSession(g)
	return dcf.NewServer(sess, dcf.CallableSpec{
		Feeds:   []string{"x"},
		Fetches: []dcf.Tensor{scores},
	}, dcf.BatchOptions{
		MaxBatchSize:  32,
		MaxQueueDelay: 2 * time.Millisecond,
	})
}

// predictHandler decodes {"x": [..16 floats..]}, rides the shared batched
// Server under the request's context, and replies with the class scores.
func predictHandler(model *dcf.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			X []float64 `json:"x"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.X) != dim {
			http.Error(w, fmt.Sprintf("want {\"x\": [%d floats]}", dim), http.StatusBadRequest)
			return
		}
		out, err := model.Predict(r.Context(), dcf.FromFloats(req.X, 1, dim))
		if err != nil {
			// A canceled r.Context() lands here: the request was dropped
			// from its micro-batch; its batch-mates were unaffected.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"scores": out[0].F})
	}
}

func main() {
	model, err := buildModel()
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", predictHandler(model))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler: mux,
		// Bound how long a client may dribble headers or stall reads of
		// our response; without these a handful of slow sockets can pin
		// every server goroutine.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String() + "/predict"
	fmt.Printf("serving on %s\n", url)

	// Demo load: 8 concurrent clients, 25 requests each, one shared model.
	// The batcher coalesces them: expect far fewer batches than requests.
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				input := dcf.RandNormal(uint64(c*100+i+1), 0, 1, dim).F
				body, _ := json.Marshal(map[string]any{"x": input})
				resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
				if err != nil {
					log.Fatal(err)
				}
				var reply struct {
					Scores []float64 `json:"scores"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
				best, bestV := 0, reply.Scores[0]
				for k, v := range reply.Scores {
					if v > bestV {
						best, bestV = k, v
					}
				}
				mu.Lock()
				counts[best]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	stats := model.Stats()
	fmt.Printf("200 concurrent predictions served; class histogram: %v\n", counts)
	fmt.Printf("batching: %d requests in %d batches (avg %.1f rows/batch)\n",
		stats.BatchedRequests, stats.Batches, stats.AvgBatchRows())

	// Graceful shutdown: normally this waits for SIGINT/SIGTERM; the demo
	// has finished its load, so trigger it ourselves and drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { _ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM) }()
	<-ctx.Done()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	model.Close() // drain the batcher: every accepted request completes
	fmt.Println("drained and shut down cleanly")
}
