// The three fdbench workloads (README.md and METRICS.md beside src/).
#pragma once

#include "probe.hpp"

namespace fdbench {

/// Open loop over loopback UDP + TCP: peers crash and revive on a seeded
/// schedule; crash -> client-decoded Suspect against T_D^U.
Result run_crash_fleet(const Options& opt, Tracer& tracer);

/// Closed loop direct drive of Dispatcher::ingest at a peer table several
/// times the last-level cache, windows full.
Result run_peer_scale(const Options& opt, Tracer& tracer);

/// Open loop control-plane churn (unsubscribe + resubscribe) beside
/// verdict delivery and one /metrics scrape per second.
Result run_sub_churn(const Options& opt, Tracer& tracer);

}  // namespace fdbench
