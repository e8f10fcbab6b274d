// Four in-process shard servers on loopback TCP with a net::Router in
// front, and the net-layer probe that measures them.

#include <stdexcept>

#include "archive/sharded.hpp"
#include "bench.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "obs/metrics.hpp"

namespace pb {

Fleet::Fleet(const RasterInputs& in)
    : in_(in), registry_(std::make_unique<mmir::obs::MetricsRegistry>()) {
  mmir::net::RouterConfig rc;
  for (std::size_t s = 0; s < kShards; ++s) {
    mmir::net::ShardServerConfig sc;
    sc.engine.dispatchers = 1;
    sc.engine.intra_query_threads = 0;
    sc.engine.queue_capacity = 64;
    sc.engine.metrics = registry_.get();
    auto server = std::make_unique<mmir::net::ShardServer>(sc);
    server->register_archive(kArchiveId, in_.archive.get(), in_.ranges);
    if (!server->start()) throw std::runtime_error("could not start a shard server");
    rc.ports.push_back(static_cast<std::uint16_t>(server->port()));
    ports_.insert(static_cast<std::uint16_t>(server->port()));
    servers_.push_back(std::move(server));
  }
  router_ = std::make_unique<mmir::net::Router>(rc);
}

Fleet::~Fleet() {
  router_.reset();
  for (auto& s : servers_) s->stop();
}

mmir::RasterTopK Fleet::query(std::size_t model) {
  mmir::net::RouterQuery q;
  q.archive_id = kArchiveId;
  q.shard_count = kShards;
  q.policy = mmir::ShardPolicy::kRowBands;
  q.mode = mmir::ShardScanMode::kCombined;
  q.model = &in_.linear(model);
  q.k = kTopK;
  mmir::QueryContext ctx;
  mmir::CostMeter meter;
  return router_->execute(q, ctx, meter).result.merged;
}

std::size_t Fleet::connections() const { return read_tcp(ports_).fleet_conns; }

void probe_fleet(const RasterInputs& in, Layers& out, SpanLog& spans) {
  constexpr int kReps = 4;
  const std::size_t models = std::min<std::size_t>(64, in.models.size());
  Fleet fleet(in);
  for (std::size_t m = 0; m < models; ++m) (void)fleet.query(m);  // warm: layouts, metadata
  const std::size_t conns0 = fleet.connections();
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t m = 0; m < models; ++m) {
      SpanLog::Scope s(&spans, "net.router_execute");
      (void)fleet.query(m);
    }
  }
  out["net.connects_per_query"] = static_cast<double>(fleet.connections() - conns0) /
                                  static_cast<double>(kReps * models);
  // Wire tax: the router's p50 minus the in-process sharded executor's p50
  // on the same layout, mode and models.
  const mmir::ShardedArchive sharded(*in.archive, Fleet::kShards, mmir::ShardPolicy::kRowBands);
  mmir::ThreadPool pool(3);
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t m = 0; m < models; ++m) {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      SpanLog::Scope s(&spans, "shard.combined_inproc");
      (void)mmir::sharded_progressive_combined_top_k(sharded, *in.progressive[m], kTopK, ctx,
                                                     meter, pool);
    }
  }
  out["net.wire_tax_ms"] = median(spans.durations_ms("net.router_execute")) -
                           median(spans.durations_ms("shard.combined_inproc"));
}

}  // namespace pb
