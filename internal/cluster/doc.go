// Package cluster is the replicated serving tier: a dispatcher fronting N
// independent serve.Engine replicas, each with its own crossbar substrate,
// fault population and repair stream. The paper's on-line detect→repair
// flow (DESIGN.md §11) keeps a single array usable as faults accumulate;
// this package lifts the same idea one level up, making the *replica* the
// unit of fault tolerance:
//
//   - Requests route to the healthiest replica by a score combining
//     rolling probe accuracy (against a labelled reference set), queue
//     fill, and substrate epoch churn (recent repair activity).
//   - A replica entering a repair pass is drained first — admission
//     closes, traffic fails over to its peers, and queued work is still
//     answered — then readmitted when the pass completes. With a single
//     replica there is nothing to fail over to, so repair runs undrained
//     under the engine's existing single-writer lock/epoch protocol.
//   - Requests refused by a draining, overloaded or closing replica are
//     re-dispatched to another replica, at most twice; a request the
//     whole cluster refuses, or that exhausts its re-dispatches, is
//     answered with serve.ErrOverloaded. Every submission thus ends in
//     exactly one response, which is what keeps serve.RunLoad's
//     conservation invariant (Sent == OK+Timeouts+Rejected+Errored) true
//     across failover — no request is silently dropped, and no request is
//     ever answered twice.
//   - A replica whose repair passes come back degraded three times in a
//     row (repair.OutcomeDegraded: the drop-connect budget exhausted, so
//     every further pass would only zero more weights; under golden
//     restore, any faulty substrate) is rebuilt: a fresh substrate from
//     Config.NewModel, re-programmed from the checkpoint weight Image,
//     swapped in while the old engine drains and answers its remaining
//     work.
//
// The layering mirrors the repair extraction: cluster may import serve,
// repair and core; none of them may import cluster (enforced by
// scripts/ci.sh's go list -deps gate).
package cluster
