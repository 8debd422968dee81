// Package tenant turns the simulation service into a multi-tenant
// system: many callers share one worker fleet under explicit fairness
// and admission guarantees, the serving-tier analogue of the paper's
// secondary users sharing spectrum with primaries under coexistence
// constraints.
//
// Three pieces compose, each usable on its own:
//
//   - Identity: Canonicalize maps the X-Tenant-Id header (or an empty
//     string, for anonymous callers) onto a validated tenant id that is
//     carried through job metadata, logs and metrics.
//
//   - Scheduler: a fair queue of per-tenant FIFOs served in rotation.
//     Each tenant advances a "pass" by one per dispatched job, and the
//     scheduler always serves the eligible tenant with the smallest
//     pass — so while tenants stay backlogged they receive equal
//     service, and a tenant with a huge backlog cannot starve one with
//     a small backlog. A tenant returning from idle joins at the
//     current pass, so it banks no credit. Soft concurrency shares
//     additionally cap a tenant at an equal share of the pool's
//     workers while others are waiting; the cap is work-conserving and
//     lifts when no other tenant has work.
//
//   - Limiter: per-tenant token-bucket admission control. Each tenant
//     refills at Rate jobs/second up to a Burst budget; a rejected
//     submission carries how long that tenant must wait for its next
//     token, which the HTTP layer turns into a per-tenant Retry-After.
//
// Scheduling only reorders jobs across tenants — it never changes what
// a job computes — so results stay bit-identical to the single-tenant
// service for every interleaving.
package tenant
