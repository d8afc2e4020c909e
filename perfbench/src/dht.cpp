// dht_serve: the pipelined DhtClient on 4 inproc ranks. Each rank is a
// closed-loop caller: it keeps up to kDepth ops in flight and harvests the
// answers as they complete. No stencil code runs; matching, the inproc
// wire, and client batching, dedup and put coalescing do the work.

#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "pdc/mp/client.hpp"
#include "pdc/mp/comm.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;
constexpr std::size_t kKeys = std::size_t{1} << 18;
constexpr std::size_t kOpsPerRank = 400000;
/// Ops each caller keeps in flight: below the client's per-shard window
/// (64), so a submit never blocks inside the client and only the caller
/// decides when to wait. A depth above the window made phase times swing
/// by a quarter between identical runs.
constexpr std::size_t kDepth = 48;

/// What a run_stream pass checks a get against.
enum class GetCheck {
  kKeyField,  ///< found, and the value's key field is the key asked
  kLatest,    ///< exactly the last value this rank wrote (final sweep)
};

/// One rank's caller state.
struct Caller {
  int rank = 0;
  std::vector<KvOp> stream;            ///< the per-phase op stream
  std::vector<std::uint32_t> version;  ///< last version written, by key / kRanks
  std::uint64_t submitted = 0, completed = 0, wrong = 0;
  std::vector<double> latency_us;      ///< sampled phases only
};

struct InFlight {
  pdc::mp::DhtFuture f;
  std::int64_t key = 0;
  std::int64_t expect = -1;  ///< exact value expected; -1: key field only
  Clock::time_point t;
};

void run_stream(pdc::mp::DhtClient& client, Caller& c,
                const std::vector<KvOp>& ops, GetCheck get_check,
                bool sample) {
  std::vector<InFlight> inflight;
  inflight.reserve(kDepth);
  const auto harvest = [&] {
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& op = inflight[i];
      if (!op.f.done()) {
        ++i;
        continue;
      }
      if (sample)
        c.latency_us.push_back(1e6 * seconds_since(op.t));
      const pdc::mp::GetResult r = op.f.wait();
      const bool ok = op.expect >= 0 ? r.found && r.value == op.expect
                                     : checks::dht_get_ok(op.key, r.found,
                                                          r.value);
      c.wrong += ok ? 0 : 1;
      ++c.completed;
      if (&op != &inflight.back()) op = std::move(inflight.back());
      inflight.pop_back();
    }
  };
  for (const KvOp& op : ops) {
    while (inflight.size() >= kDepth) {
      (void)inflight.front().f.wait();
      harvest();
    }
    InFlight in;
    in.key = op.key();
    if (sample) in.t = Clock::now();
    const auto slot = static_cast<std::size_t>(in.key / kRanks);
    if (op.is_get()) {
      if (get_check == GetCheck::kLatest)
        in.expect = checks::dht_value(in.key, c.version[slot]);
      in.f = client.get(in.key);
    } else {
      if (dht_writer(in.key, kRanks) != c.rank) ++c.wrong;  // one writer
      in.expect = checks::dht_value(in.key, ++c.version[slot]);
      in.f = client.put(in.key, in.expect);
    }
    ++c.submitted;
    inflight.push_back(std::move(in));
  }
  while (!inflight.empty()) {
    (void)inflight.front().f.wait();
    harvest();
  }
}

/// Every key rank `rank` writes, as puts (the preload) or gets (the sweep).
std::vector<KvOp> own_keys(int rank, bool is_get) {
  std::vector<KvOp> ops;
  for (auto k = static_cast<std::int64_t>(rank);
       k < static_cast<std::int64_t>(kKeys); k += kRanks)
    ops.emplace_back(is_get, k);
  return ops;
}

}  // namespace

Result run_dht_serve(const Args& args) {
  Result res;
  std::vector<Caller> callers(kRanks);
  {
    // The Zipf table is freed before the program's first allocation.
    const ZipfTable zipf(kKeys, 0.99);
    for (int r = 0; r < kRanks; ++r) {
      auto& c = callers[static_cast<std::size_t>(r)];
      c.rank = r;
      c.stream = dht_stream(r, kRanks, kOpsPerRank, zipf, args.seed);
      c.version.assign(kKeys / kRanks, 0);
    }
  }

  double setup_s = 0.0;
  PhaseTimes times;
  TraceWindow tw;
  pdc::mp::Communicator comm(kRanks);
  comm.run([&](pdc::mp::RankContext& ctx) {
    Caller& c = callers[static_cast<std::size_t>(ctx.rank())];
    pdc::mp::DhtClient client(ctx);
    run_stream(client, c, own_keys(c.rank, false), GetCheck::kKeyField,
               false);
    client.fence();
    // Rank 0 leads: it broadcasts 1 (plain phase), 2 (latency-sampled
    // phase) or 0 (done) before each phase. A fence ends every phase, so
    // no op is outstanding while the ranks wait in the broadcast.
    const auto phase_body = [&](bool sample) {
      run_stream(client, c, c.stream, GetCheck::kKeyField, sample);
      client.fence();
    };
    if (ctx.rank() == 0) {
      setup_s = seconds_since(args.start);
      Phase phase;
      phase.run = [&] {
        (void)ctx.broadcast_value(0, 1);
        phase_body(false);
      };
      times = timed_phases(args.seconds, phase);
      if (args.trace) {
        (void)ctx.broadcast_value(0, 2);
        phase_body(true);
        tw.start();
        phase.run();
        tw.stop();
      }
      (void)ctx.broadcast_value(0, 0);
    } else {
      for (std::int64_t cmd; (cmd = ctx.broadcast_value(0, 0)) != 0;)
        phase_body(cmd == 2);
    }
    run_stream(client, c, own_keys(c.rank, true), GetCheck::kLatest, false);
    client.shutdown();
  });
  add_end_to_end(res, setup_s, times);

  std::uint64_t submitted = 0, completed = 0, wrong = 0;
  std::vector<double> latency_us;
  for (const auto& c : callers) {
    submitted += c.submitted;
    completed += c.completed;
    wrong += c.wrong;
    latency_us.insert(latency_us.end(), c.latency_us.begin(),
                      c.latency_us.end());
  }
  if (args.trace) {
    tw.add_metrics(res);
    res.per_layer["dht.op_p50_us"] = {quantile(latency_us, 0.50), "us"};
    res.per_layer["dht.op_p99_us"] = {quantile(latency_us, 0.99), "us"};
    add_microbenchmarks(res, kRanks, kRanks);
  }
  res.attempted = submitted;
  res.failed = (submitted - completed) + wrong;
  res.check(completed == submitted,
            "completed ops " + std::to_string(completed) + " == submitted " +
                std::to_string(submitted));
  res.check(wrong == 0, std::to_string(wrong) +
                            " ops answered wrongly (gets: found, key field, "
                            "final sweep; puts: one writer, echo)");
  std::cerr << "perfbench: dht_serve " << kRanks << " ranks, " << kKeys
            << " keys, " << kOpsPerRank << " ops per rank per phase, "
            << times.wall.size() << " timed phases\n";
  return res;
}

}  // namespace perfbench
