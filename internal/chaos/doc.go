// Package chaos holds the fault-injection soak suite for the
// serve/engine stack. It has no production code: the package exists so
// that
//
//	go test -race -tags faultinject ./internal/chaos
//
// drives mixed traffic (delay, repeaters, sweep, tree) through a real
// HTTP server via the retrying client (internal/client) while seeded
// failpoints (internal/faultinject) fire panics in single-net computes,
// corrupt cache entries, fail band-LU factorizations and stall pool
// workers, and a fraction of requests are canceled mid-flight.
//
// The invariants under test:
//
//   - no deadlock and no goroutine leak after the storm (the server
//     drains to its baseline goroutine count);
//   - every request that the client retried to success returns bytes
//     identical to the fault-free answer — injected faults may cost
//     latency, never correctness;
//   - cache corruption is caught by the integrity checksum and
//     repaired, never served.
//
// Without the faultinject build tag the same test runs as a plain
// concurrency soak (all failpoints compile to no-ops), so the suite is
// also a cheap -race smoke for the serving stack. FAULT_ROUNDS scales
// the number of traffic rounds for nightly runs; -short runs one.
package chaos
