// Package cellfree simulates the uplink of a cell-free massive MIMO
// network: the paper's cooperate-as-a-virtual-array idea pushed to its
// modern extreme, where L distributed access points (APs) with N
// antennas each jointly serve K users over the same time-frequency
// resource (Björnson/Sanguinetti, "Scalable Cell-Free Massive MIMO
// Systems"). Where the cooperative-hop kernels of internal/coop work
// on mt x mr <= 4 clusters, this package runs 25-400 APs — the workload
// that stresses internal/mathx at 100+ dimensions.
//
// One trial is one network snapshot, evaluated end to end:
//
//  1. Setup generation: APs and UEs dropped uniformly on a
//     wrapped-around (torus) square, large-scale gains from the
//     three-slope path loss model (channel.ThreeSlopePathLoss) with
//     correlated log-normal shadowing (one AP term plus one UE term,
//     so two links sharing an endpoint are correlated).
//  2. Pilot assignment: the first TauP UEs get orthogonal pilots;
//     every later UE picks the pilot with the least contamination at
//     its master AP. Contamination is carried through every later
//     stage — estimates of co-pilot UEs are parallel vectors, which is
//     exactly the impairment MMSE combining exploits and MR cannot.
//  3. Per-AP MMSE channel estimation from the contaminated pilot
//     observations.
//  4. Dynamic cooperation clustering (DCC): each AP serves, per pilot,
//     the UE it hears strongest; every UE is additionally served by
//     its master AP.
//  5. Combining and spectral efficiency: maximum-ratio (MR) combining
//     over each UE's DCC cluster, or centralized MMSE combining over
//     the whole array — a Hermitian solve of dimension L*N per
//     realization, batched over the K users through one Cholesky
//     factorization (mathx.Cholesky.SolveBatchInto). The per-user
//     uplink SE averages log2(1+SINR) over channel realizations with
//     the (1 - TauP/TauC) pilot-overhead prelog.
//
// Because the MMSE combiner maximizes the instantaneous SINR that both
// combiners are scored by, MMSE SE >= MR SE holds per user per
// realization — the ordering the ext-cellfree experiment and
// internal/cluster's TestCellfreeDistributedMatchesSerialGolden assert.
//
// Determinism: a Config fully determines the result. The PRNG walk
// from Config.Seed is fixed (AP positions, UE positions, AP shadowing,
// UE shadowing, then per realization the channels UE-major and the
// pilot noise pilot-major), so a trial replays bit-for-bit anywhere —
// the property the registered cellfree.se kernels inherit from the
// chunk-seeded Monte-Carlo plan.
package cellfree
