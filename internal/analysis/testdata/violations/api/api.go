// Package api seeds a deadapi finding outside internal/: the analyzer's
// scope is every package of the module, the public one included.
package api

import "net/http"

// Serve is the package's live entry point.
func Serve(mux *http.ServeMux) { mux.Handle("/", handler{}) }

type handler struct{}

// ServeHTTP is called only by net/http, through http.Handler: the
// standard-library rule keeps it live.
func (handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {}

// Helper is an exported function that only a test calls.
func Helper() int { return 1 } // WANT:deadapi
