#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <utility>

#include "cluster/router.h"
#include "engine/context.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "queries/plan_query.h"
#include "relational/optimizer.h"
#include "relational/sql_exec.h"
#include "relational/sql_parser.h"
#include "service/service.h"
#include "tpch/generator.h"
#include "util.h"

namespace dpbench {

namespace {

namespace cluster = upa::cluster;
namespace core = upa::core;
namespace engine = upa::engine;
namespace net = upa::net;
namespace service = upa::service;
namespace tpch = upa::tpch;
using upa::Result;
using upa::Status;

/// Every release spends this much; budgets are far above what a run uses.
constexpr double kEpsilon = 1.0;
constexpr double kBudget = 1e12;
/// Set-ups per run. setup_s is the process CPU time of one set-up, the
/// median over the calmer half of them; the last set-up is the one measured.
/// CPU rather than wall time: a set-up is ~50 ms of thread start-ups,
/// health probes and fsyncs whose wall time swung by 80% with host steal.
constexpr int kSetupRepeats = 9;
/// Traced cached_routed: every kProbeEvery-th request of an analyst goes
/// straight to the owning shard (the cluster.hop_ms reference).
constexpr size_t kProbeEvery = 4;

size_t OrdersFor(const RunOptions& o) {
  if (o.workload == "cached_routed") return o.quick ? 600 : 5000;
  if (o.workload == "fresh_direct") return o.quick ? 1500 : 20000;
  return o.quick ? 800 : 5000;  // grouped_local
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string Int(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::to_string(std::uniform_int_distribution<int64_t>(lo, hi)(rng));
}

std::string Dec(std::mt19937_64& rng, double lo, double hi) {
  return Fmt("%.3f", std::uniform_real_distribution<double>(lo, hi)(rng));
}

Pred P(const std::string& column, Pred::Op op, std::string literal) {
  return Pred{column, op, std::move(literal)};
}

constexpr Pred::Op kLt = Pred::Op::kLt;
constexpr Pred::Op kGe = Pred::Op::kGe;

ReleaseShape Release(std::string label, std::string table, bool sum,
                     std::string sum_column, std::vector<Pred> preds) {
  ReleaseShape s;
  s.label = std::move(label);
  s.private_table = table;
  s.table = std::move(table);
  s.sum = sum;
  s.sum_column = std::move(sum_column);
  s.preds = std::move(preds);
  return s;
}

ReleaseShape JoinRelease(std::string label, std::string private_table,
                         bool sum, std::string sum_column,
                         std::vector<Pred> preds) {
  ReleaseShape s = Release(std::move(label), std::move(private_table), sum,
                           std::move(sum_column), std::move(preds));
  s.join = true;
  s.table.clear();
  return s;
}

// ---------------------------------------------------------------------------
// Spans recorded in the benchmark's compiler callback, keyed by the
// request's idempotency key (client_nonce, client_seq).

struct CompileSpans {
  double parse_s = 0.0;
  double optimize_s = 0.0;
  double compile_s = 0.0;
  double Total() const { return parse_s + optimize_s + compile_s; }
};

class SpanLog {
 public:
  void Record(uint64_t nonce, uint64_t seq, const CompileSpans& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[{nonce, seq}] = spans;
  }
  bool Find(uint64_t nonce, uint64_t seq, CompileSpans* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = spans_.find({nonce, seq});
    if (it == spans_.end()) return false;
    *out = it->second;
    return true;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<uint64_t, uint64_t>, CompileSpans> spans_;
};

/// WireQuery → QueryInstance the way examples/upa_server.cpp does it:
/// ParseSql → Optimize → MakePlanQuery, with each step timed when `spans`
/// is set.
net::QueryCompiler MakeSqlCompiler(
    engine::ExecContext* ctx,
    std::shared_ptr<const rel::PlanExecutor> executor,
    const tpch::TpchDataset* data, SpanLog* spans) {
  return [ctx, executor, data,
          spans](const net::WireQuery& wire) -> Result<core::QueryInstance> {
    const double t0 = NowSeconds();
    Result<rel::PlanPtr> parsed = rel::ParseSql(wire.sql);
    if (!parsed.ok()) return parsed.status();
    const double t1 = NowSeconds();
    rel::OptimizerOptions opt;
    opt.private_table = wire.dataset_id;
    rel::PlanPtr plan = rel::Optimize(parsed.value(), data->catalog(), opt);
    const double t2 = NowSeconds();
    rel::PlanStats stats = rel::AnalyzePlan(plan);
    if (stats.agg != rel::AggKind::kCount && stats.agg != rel::AggKind::kSum) {
      return Status::Unsupported("only COUNT/SUM release");
    }
    if (std::find(stats.tables.begin(), stats.tables.end(), wire.dataset_id) ==
        stats.tables.end()) {
      return Status::InvalidArgument("query does not scan the private table");
    }
    tpch::TpchQuery query;
    query.name = "sql:" + wire.sql.substr(0, 40);
    query.plan = plan;
    query.private_table = wire.dataset_id;
    core::QueryInstance instance = upa::queries::MakePlanQuery(
        ctx, executor, data, query, nullptr, /*optimize=*/false);
    if (spans != nullptr) {
      spans->Record(wire.client_nonce, wire.client_seq,
                    CompileSpans{t1 - t0, t2 - t1, NowSeconds() - t2});
    }
    return instance;
  };
}

/// One net::Server + UpaService over the shared dataset: a shard of
/// cached_routed or the single server of fresh_direct. Members are
/// destroyed bottom-up: server, service, executor, catalog, context.
struct ReleaseServer {
  std::unique_ptr<engine::ExecContext> ctx;
  rel::Catalog catalog;
  std::shared_ptr<const rel::PlanExecutor> executor;
  std::unique_ptr<service::UpaService> service;
  std::unique_ptr<net::Server> server;
};

Result<std::unique_ptr<ReleaseServer>> StartServer(
    const tpch::TpchDataset* data, size_t threads,
    const std::string& journal_dir, const std::string& name,
    SpanLog* spans) {
  auto s = std::make_unique<ReleaseServer>();
  engine::ExecConfig exec;
  exec.threads = threads;
  s->ctx = std::make_unique<engine::ExecContext>(exec);
  s->catalog = data->catalog();
  s->executor = std::make_shared<const rel::PlanExecutor>(s->ctx.get(),
                                                          &s->catalog);
  service::ServiceConfig cfg;
  cfg.upa.epsilon = kEpsilon;
  cfg.budget_per_dataset = kBudget;
  cfg.journal_dir = journal_dir;
  cfg.journal_fsync = true;
  cfg.shard_name = name;
  s->service = std::make_unique<service::UpaService>(s->ctx.get(), cfg);
  if (!s->service->recovery_status().ok()) {
    return s->service->recovery_status();
  }
  s->server = std::make_unique<net::Server>(
      s->service.get(),
      MakeSqlCompiler(s->ctx.get(), s->executor, data, spans));
  Status started = s->server->Start();
  if (!started.ok()) return started;
  return s;
}

// ---------------------------------------------------------------------------
// Closed-loop analysts.

struct ReleaseOp {
  uint32_t shape = 0;
  bool direct = false;
  bool in_window = false;
  bool ok = false;
  bool cache_hit = false;
  double released = 0.0;
  double rtt_s = 0.0;
  double done_at = 0.0;  // NowSeconds() when the reply arrived
  double queue_s = 0.0;
  core::PhaseSeconds phases;
  uint64_t nonce = 0;
  uint64_t seq = 0;
};

using FreshShape = std::function<ReleaseShape(size_t k, std::mt19937_64&)>;

/// One analyst: one tenant, one private table, one connection (plus, in
/// the traced cached_routed run, one to the owning shard for probes). It
/// sends its next query only after the previous reply arrived.
struct ReleaseAnalyst {
  std::string tenant;
  std::string dataset;
  /// The fixed rotation, or every fresh shape sent so far.
  std::vector<ReleaseShape> shapes;
  FreshShape fresh;  // null: rotate `shapes`
  size_t round = 3;  // templates per round
  std::unique_ptr<net::Client> client;
  std::unique_ptr<net::Client> direct;
  std::mt19937_64 rng;
  std::set<std::string> sent;  // fresh SQL already used
  std::vector<ReleaseOp> ops;
  size_t next = 0;
  uint64_t seq_routed = 0;
  uint64_t seq_direct = 0;
  std::string error;  // first failure (transport or status)
  bool broken = false;

  void Step(bool in_window) {
    uint32_t index;
    if (fresh) {
      ReleaseShape shape;
      do {
        shape = fresh(next % round, rng);
      } while (!sent.insert(shape.Sql()).second);
      shapes.push_back(std::move(shape));
      index = static_cast<uint32_t>(shapes.size() - 1);
    } else {
      index = static_cast<uint32_t>(next % shapes.size());
    }
    const bool use_direct =
        direct != nullptr && next % kProbeEvery == kProbeEvery - 1;
    ++next;
    net::Client& conn = use_direct ? *direct : *client;
    net::WireQuery query;
    query.tenant = tenant;
    query.dataset_id = dataset;
    query.epsilon = kEpsilon;
    query.seed = rng();  // carried only because the wire format has it
    query.sql = shapes[index].Sql();
    query.client_nonce = conn.client_nonce();
    query.client_seq = use_direct ? ++seq_direct : ++seq_routed;

    ReleaseOp op;
    op.shape = index;
    op.direct = use_direct;
    op.in_window = in_window;
    op.nonce = query.client_nonce;
    op.seq = query.client_seq;
    const double t0 = NowSeconds();
    Result<net::WireResult> reply = conn.Query(std::move(query));
    op.done_at = NowSeconds();
    op.rtt_s = op.done_at - t0;
    if (!reply.ok()) {
      if (error.empty()) error = reply.status().ToString();
      broken = true;
    } else if (!reply.value().ok()) {
      if (error.empty()) error = reply.value().status().ToString();
    } else {
      const service::QueryResponse& r = reply.value().response;
      op.ok = true;
      op.released = r.released;
      op.cache_hit = r.sensitivity_cache_hit;
      op.queue_s = r.queue_seconds;
      op.phases = r.seconds;
    }
    ops.push_back(op);
  }

  void Rounds(size_t n) {
    for (size_t i = 0; i < n * round && !broken; ++i) Step(false);
  }

  /// Whole rounds until `stop_at`.
  void Until(double stop_at) {
    do {
      for (size_t i = 0; i < round && !broken; ++i) Step(true);
    } while (!broken && NowSeconds() < stop_at);
  }
};

struct Window {
  double elapsed_s = 0.0;
  double process_cpu_s = 0.0;
  double load_cpu_s = 0.0;  // summed CPU of the load generator's threads
  double steal = 0.0;
  /// Whole one-second slices of the window that end before `seconds`
  /// (every load thread is still running at both ends of such a slice):
  /// slice k spans [bounds[k], bounds[k+1]) on the NowSeconds() clock.
  std::vector<double> bounds;
  std::vector<double> slice_program_cpu_s;  // process minus load CPU
  std::vector<double> slice_steal;          // host steal share
};

/// Runs body(i) on `threads` threads and measures the window around them,
/// sampling CPU clocks and host steal once a second.
Window MeasureWindow(size_t threads, double seconds,
                     const std::function<void(size_t)>& body) {
  Window w;
  std::vector<double> cpu(threads, 0.0);
  const HostCpu host0 = ReadHostCpu();
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  std::vector<std::thread> pool;
  std::vector<clockid_t> clocks(threads);
  for (size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      const double c0 = ThreadCpuSeconds();
      body(i);
      cpu[i] = ThreadCpuSeconds() - c0;
    });
    pthread_getcpuclockid(pool.back().native_handle(), &clocks[i]);
  }
  auto program_cpu = [&] {
    double load = 0.0;
    for (clockid_t c : clocks) load += ClockSeconds(c);
    return ProcessCpuSeconds() - load;
  };
  const size_t slices = seconds > 1.0 ? static_cast<size_t>(seconds) - 1 : 0;
  double prev_cpu = program_cpu();
  HostCpu prev_host = ReadHostCpu();
  w.bounds.push_back(t0);
  for (size_t k = 1; k <= slices; ++k) {
    SleepUntil(t0 + static_cast<double>(k));
    const double now_cpu = program_cpu();
    const HostCpu host = ReadHostCpu();
    w.bounds.push_back(NowSeconds());
    w.slice_program_cpu_s.push_back(now_cpu - prev_cpu);
    w.slice_steal.push_back(StealShare(prev_host, host));
    prev_cpu = now_cpu;
    prev_host = host;
  }
  for (std::thread& t : pool) t.join();
  w.elapsed_s = NowSeconds() - t0;
  w.process_cpu_s = ProcessCpuSeconds() - cpu0;
  for (double c : cpu) w.load_cpu_s += c;
  w.steal = StealShare(host0, ReadHostCpu());
  return w;
}

/// Marks the half (rounded up) of the entries with the least host steal;
/// ties go to the earlier entry.
std::vector<bool> CalmerHalf(const std::vector<double>& steal) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> calm(steal.size(), false);
  for (size_t i = 0; i < (steal.size() + 1) / 2; ++i) calm[order[i]] = true;
  return calm;
}

/// Median of `values` over the calmer half of the entries.
double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal) {
  const std::vector<bool> calm = CalmerHalf(steal);
  std::vector<double> kept;
  for (size_t i = 0; i < values.size(); ++i) {
    if (calm[i]) kept.push_back(values[i]);
  }
  return Median(kept);
}

/// End-to-end figures over the calmer half of the window: the one-second
/// slices in which the host hypervisor stole the least CPU from this
/// machine. On a shared host, steal comes in bursts that can halve a
/// closed loop's throughput; the calmer half keeps bursts covering up to
/// half the run out of the figures without lengthening the run.
struct CalmFigures {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  double steal = 0.0;  // mean steal share of the chosen slices
  size_t slices = 0;
};

CalmFigures OverCalmerHalf(const Window& w, const std::vector<double>& done_at,
                           const std::vector<double>& latency_ms) {
  const std::vector<bool> calm = CalmerHalf(w.slice_steal);
  std::vector<double> lat;
  for (size_t i = 0; i < done_at.size(); ++i) {
    auto it = std::upper_bound(w.bounds.begin(), w.bounds.end(), done_at[i]);
    if (it == w.bounds.begin() || it == w.bounds.end()) continue;
    const size_t k = static_cast<size_t>(it - w.bounds.begin()) - 1;
    if (calm[k]) lat.push_back(latency_ms[i]);
  }
  CalmFigures f;
  double seconds = 0.0, cpu = 0.0;
  for (size_t k = 0; k < calm.size(); ++k) {
    if (!calm[k]) continue;
    ++f.slices;
    seconds += w.bounds[k + 1] - w.bounds[k];
    cpu += w.slice_program_cpu_s[k];
    f.steal += w.slice_steal[k];
  }
  const double ops = static_cast<double>(lat.size());
  if (f.slices > 0) f.steal /= static_cast<double>(f.slices);
  if (ops > 0) {
    f.ops_per_s = ops / seconds;
    f.cpu_ms_per_op = cpu / ops * 1e3;
  }
  f.p50_ms = Quantile(lat, 0.5);
  f.p90_ms = Quantile(lat, 0.9);
  return f;
}

void RunParallel(size_t threads, const std::function<void(size_t)>& body) {
  std::vector<std::thread> pool;
  for (size_t i = 0; i < threads; ++i) pool.emplace_back(body, i);
  for (std::thread& t : pool) t.join();
}

void NoteRows(RunReport& report, const tpch::TpchDataset& data) {
  std::string rows;
  for (const char* t : {"lineitem", "orders", "customer", "part", "partsupp"}) {
    rows += (rows.empty() ? "" : ", ") + std::string(t) + " " +
            std::to_string(data.table(t).NumRows());
  }
  report.Note("rows", rows);
}

void NoteSetups(RunReport& report, const std::vector<double>& wall_s,
                const std::vector<double>& cpu_s) {
  std::string wall, cpu;
  for (double s : wall_s) wall += Fmt(wall.empty() ? "%.4f" : " %.4f", s);
  for (double s : cpu_s) cpu += Fmt(cpu.empty() ? "%.4f" : " %.4f", s);
  report.Note("setup_wall_s_each", wall);
  report.Note("setup_cpu_s_each", cpu);
}

/// Wall-clock figures go to the run header rather than the gated metrics:
/// on a shared host they moved by up to 2x with the host's load between
/// runs of the same build, far beyond any bound a regression gate can use.
/// So does peak_rss_mb, which follows how many releases fresh_direct
/// completes (the engine's block cache grows with every release).
void NoteWallClock(RunReport& report, double ops_per_s, double p50_ms,
                   double p90_ms) {
  report.Note("ops_per_s", Fmt("%.6g", ops_per_s));
  report.Note("latency_p50_ms", Fmt("%.6g", p50_ms));
  report.Note("latency_p90_ms", Fmt("%.6g", p90_ms));
}

/// The highest percentile the sample supports, for the run header.
void NoteTail(RunReport& report, const std::vector<double>& latencies_ms) {
  TailPercentile tail = HighestSupportedPercentile(latencies_ms, 10);
  report.Note("latency_tail", "p" + Fmt("%g", tail.percentile) + " = " +
                                  Fmt("%.4f", tail.value) + " ms (" +
                                  std::to_string(tail.samples_beyond) +
                                  " samples beyond, " +
                                  std::to_string(latencies_ms.size()) +
                                  " total)");
}

engine::MetricsSnapshot SumSnapshots(
    const std::vector<engine::ExecContext*>& contexts) {
  engine::MetricsSnapshot total;
  for (engine::ExecContext* ctx : contexts) {
    engine::MetricsSnapshot s = ctx->metrics().Snapshot();
    total.tasks_launched += s.tasks_launched;
    total.kernel_batches += s.kernel_batches;
    total.kernel_rows += s.kernel_rows;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
  }
  return total;
}

void AddEngineMetrics(RunReport& report, const engine::MetricsSnapshot& begin,
                      const engine::MetricsSnapshot& end, double ops) {
  const double hits = static_cast<double>(end.cache_hits - begin.cache_hits);
  const double misses =
      static_cast<double>(end.cache_misses - begin.cache_misses);
  report.Set("engine.kernel_rows_per_op",
             static_cast<double>(end.kernel_rows - begin.kernel_rows) / ops,
             "rows");
  report.Set(
      "engine.kernel_batches_per_op",
      static_cast<double>(end.kernel_batches - begin.kernel_batches) / ops,
      "batches");
  report.Set(
      "engine.pool_tasks_per_op",
      static_cast<double>(end.tasks_launched - begin.tasks_launched) / ops,
      "tasks");
  report.Set("engine.scan_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

/// Per-layer metrics a workload's path does not cross are reported as 0.
void ZeroAbsentLayers(RunReport& report) {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"relational.parse_ms", "ms"},
      {"relational.optimize_ms", "ms"},
      {"queries.compile_ms", "ms"},
      {"service.queue_ms", "ms"},
      {"upa.sample_ms", "ms"},
      {"upa.map_ms", "ms"},
      {"upa.reduce_ms", "ms"},
      {"upa.enforce_ms", "ms"},
      {"net.residual_ms", "ms"},
      {"cluster.hop_ms", "ms"},
      {"cluster.backpressure_rejects", "count"},
      {"service.journal_bytes_per_op", "B"},
      {"service.sens_cache_hit_ratio", "ratio"},
      {"engine.kernel_rows_per_op", "rows"},
      {"engine.kernel_batches_per_op", "batches"},
      {"engine.pool_tasks_per_op", "tasks"},
      {"engine.scan_cache_hit_ratio", "ratio"},
      {"relational.execute_ms", "ms"},
  };
  for (const auto& [name, unit] : kAll) {
    if (!report.metrics.count(name)) report.Set(name, 0.0, unit);
  }
}

std::string TracePath(const RunOptions& o) {
  return o.work_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) +
         ".jsonl";
}

// ---------------------------------------------------------------------------
// Release workloads: cached_routed and fresh_direct.

std::vector<ReleaseAnalyst> CachedAnalystSpecs(uint64_t seed, size_t orders) {
  std::mt19937_64 rng(seed ^ 0x6361636865640000ULL);
  const int64_t customers = static_cast<int64_t>(std::max<size_t>(10, orders / 10));
  const int64_t parts = static_cast<int64_t>(std::max<size_t>(20, orders / 5));
  std::vector<ReleaseAnalyst> a(4);
  a[0].dataset = "orders";
  a[0].shapes = {
      Release("orders.count", "orders", false, "",
              {P("o_orderdate", kLt, Int(rng, 500, 2000))}),
      Release("orders.sum_custkey", "orders", true, "o_custkey",
              {P("o_orderdate", kGe, Int(rng, 300, 1500))}),
      Release("orders.count_range", "orders", false, "",
              {P("o_orderdate", kGe, Int(rng, 0, 1000)),
               P("o_orderdate", kLt, Int(rng, 1200, 2500))}),
  };
  a[1].dataset = "customer";
  a[1].shapes = {
      Release("customer.count", "customer", false, "",
              {P("c_nationkey", kLt, Int(rng, 5, 20))}),
      Release("customer.sum_nation", "customer", true, "c_nationkey",
              {P("c_custkey", kGe, Int(rng, 1, customers / 2))}),
      Release("customer.count_two", "customer", false, "",
              {P("c_nationkey", kGe, Int(rng, 3, 12)),
               P("c_custkey", kLt, Int(rng, customers / 2, customers))}),
  };
  a[2].dataset = "part";
  a[2].shapes = {
      Release("part.count", "part", false, "",
              {P("p_size", kLt, Int(rng, 10, 40))}),
      Release("part.sum_size", "part", true, "p_size",
              {P("p_partkey", kGe, Int(rng, 1, parts / 2))}),
      Release("part.count_two", "part", false, "",
              {P("p_size", kGe, Int(rng, 5, 25)),
               P("p_partkey", kLt, Int(rng, parts / 2, parts))}),
  };
  a[3].dataset = "partsupp";
  a[3].shapes = {
      Release("partsupp.count", "partsupp", false, "",
              {P("ps_availqty", kLt, Int(rng, 1000, 9000))}),
      Release("partsupp.sum_cost", "partsupp", true, "ps_supplycost",
              {P("ps_availqty", kGe, Int(rng, 1000, 9000))}),
      Release("partsupp.sum_qty", "partsupp", true, "ps_availqty",
              {P("ps_supplycost", kLt, Dec(rng, 100.0, 900.0))}),
  };
  for (size_t i = 0; i < a.size(); ++i) {
    a[i].tenant = "analyst-" + a[i].dataset;
    a[i].round = a[i].shapes.size();
  }
  return a;
}

std::vector<ReleaseAnalyst> FreshAnalystSpecs() {
  std::vector<ReleaseAnalyst> a(2);
  a[0].dataset = "lineitem";
  a[0].fresh = [](size_t k, std::mt19937_64& rng) {
    if (k == 0) {
      int64_t lo = std::uniform_int_distribution<int64_t>(0, 2000)(rng);
      int64_t width = std::uniform_int_distribution<int64_t>(30, 500)(rng);
      return Release("lineitem.count", "lineitem", false, "",
                     {P("l_shipdate", kGe, std::to_string(lo)),
                      P("l_shipdate", kLt, std::to_string(lo + width))});
    }
    if (k == 1) {
      return Release("lineitem.sum_price", "lineitem", true, "l_extendedprice",
                     {P("l_quantity", kGe, Dec(rng, 1.0, 45.0)),
                      P("l_discount", kLt, Dec(rng, 0.02, 0.1))});
    }
    return JoinRelease("lineitem.join_sum", "lineitem", true,
                       "l_extendedprice",
                       {P("o_orderdate", kLt, Int(rng, 500, 2500)),
                        P("l_shipdate", kGe, Int(rng, 0, 1500))});
  };
  a[1].dataset = "orders";
  a[1].fresh = [](size_t k, std::mt19937_64& rng) {
    if (k == 0) {
      int64_t lo = std::uniform_int_distribution<int64_t>(0, 2000)(rng);
      int64_t width = std::uniform_int_distribution<int64_t>(30, 500)(rng);
      return Release("orders.count", "orders", false, "",
                     {P("o_orderdate", kGe, std::to_string(lo)),
                      P("o_orderdate", kLt, std::to_string(lo + width))});
    }
    if (k == 1) {
      return Release("orders.sum_custkey", "orders", true, "o_custkey",
                     {P("o_orderdate", kLt, Int(rng, 300, 2500)),
                      P("o_custkey", kGe, Int(rng, 1, 1000))});
    }
    return JoinRelease("orders.join_count", "orders", false, "",
                       {P("o_orderdate", kGe, Int(rng, 0, 2000)),
                        P("l_quantity", kLt, Dec(rng, 5.0, 50.0))});
  };
  for (ReleaseAnalyst& x : a) {
    x.tenant = "analyst-" + x.dataset;
    x.round = 3;
  }
  return a;
}

/// Everything one set-up of a release workload builds. Torn down in
/// dependency order; the journal directory goes last.
struct ReleaseEnv {
  std::unique_ptr<tpch::TpchDataset> data;
  SpanLog spans;
  std::vector<std::unique_ptr<ReleaseServer>> servers;
  std::unique_ptr<cluster::Router> router;
  std::vector<std::unique_ptr<ReleaseAnalyst>> analysts;
  std::string journal_root;

  ~ReleaseEnv() {
    analysts.clear();
    if (router) router->Stop();
    router.reset();
    servers.clear();
    if (!journal_root.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(journal_root, ec);
    }
  }

  std::vector<engine::ExecContext*> Contexts() const {
    std::vector<engine::ExecContext*> out;
    for (const auto& s : servers) out.push_back(s->ctx.get());
    return out;
  }
};

Result<std::unique_ptr<ReleaseEnv>> SetupRelease(const RunOptions& o,
                                                 bool routed, int attempt) {
  auto env = std::make_unique<ReleaseEnv>();
  tpch::TpchConfig cfg;
  cfg.num_orders = OrdersFor(o);
  cfg.seed = o.seed;
  env->data = std::make_unique<tpch::TpchDataset>(cfg);
  SpanLog* spans = o.trace ? &env->spans : nullptr;

  std::vector<ReleaseAnalyst> specs =
      routed ? CachedAnalystSpecs(o.seed, cfg.num_orders) : FreshAnalystSpecs();
  if (routed) {
    env->journal_root = o.work_dir + "/journal-" + std::to_string(attempt);
    std::error_code ec;
    std::filesystem::remove_all(env->journal_root, ec);
    std::vector<cluster::ShardAddress> addrs;
    for (int s = 0; s < 2; ++s) {
      std::string name = "shard" + std::to_string(s);
      auto server = StartServer(env->data.get(), /*threads=*/1,
                                env->journal_root + "/" + name, name, spans);
      if (!server.ok()) return server.status();
      cluster::ShardAddress addr;
      addr.port = server.value()->server->port();
      addrs.push_back(addr);
      env->servers.push_back(std::move(server).value());
    }
    env->router = std::make_unique<cluster::Router>(addrs);
    UPA_RETURN_IF_ERROR(env->router->Start());
    const double deadline = NowSeconds() + 10.0;
    while (!(env->router->ShardHealthy(0) && env->router->ShardHealthy(1))) {
      if (NowSeconds() > deadline) {
        return Status::Unavailable("router shards did not become healthy");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    auto server = StartServer(env->data.get(), /*threads=*/2, "", "direct",
                              spans);
    if (!server.ok()) return server.status();
    env->servers.push_back(std::move(server).value());
  }

  const uint16_t port =
      routed ? env->router->port() : env->servers[0]->server->port();
  for (size_t i = 0; i < specs.size(); ++i) {
    auto analyst = std::make_unique<ReleaseAnalyst>(std::move(specs[i]));
    std::seed_seq seq{o.seed, static_cast<uint64_t>(i), uint64_t{0x616e}};
    analyst->rng.seed(seq);
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) return client.status();
    analyst->client = std::move(client).value();
    if (routed && o.trace) {
      size_t owner = env->router->ring().ShardFor(analyst->dataset);
      auto direct = net::Client::Connect(
          "127.0.0.1", env->servers[owner]->server->port());
      if (!direct.ok()) return direct.status();
      analyst->direct = std::move(direct).value();
    }
    env->analysts.push_back(std::move(analyst));
  }

  // Warm-up: columnar forms, scan caches, and (cached_routed) one full
  // Algorithm 1 run per shape to fill the sensitivity cache.
  const size_t warm_rounds = routed ? 2 : 1;
  RunParallel(env->analysts.size(),
              [&](size_t i) { env->analysts[i]->Rounds(warm_rounds); });
  for (const auto& a : env->analysts) {
    if (a->broken) return Status::Unavailable("warm-up: " + a->error);
  }
  return env;
}

RunReport RunRelease(const RunOptions& o) {
  RunReport report;
  const bool routed = o.workload == "cached_routed";
  std::filesystem::create_directories(o.work_dir);

  std::vector<double> setup_s, setup_cpu_s, setup_steal;
  std::unique_ptr<ReleaseEnv> env;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    env.reset();
    const HostCpu host0 = ReadHostCpu();
    const double t0 = NowSeconds();
    const double c0 = ProcessCpuSeconds();
    auto made = SetupRelease(o, routed, attempt);
    if (!made.ok()) {
      report.failures.push_back("setup: " + made.status().ToString());
      return report;
    }
    env = std::move(made).value();
    setup_cpu_s.push_back(ProcessCpuSeconds() - c0);
    setup_s.push_back(NowSeconds() - t0);
    setup_steal.push_back(StealShare(host0, ReadHostCpu()));
  }

  NoteRows(report, *env->data);
  if (routed) {
    std::string owners;
    for (const auto& a : env->analysts) {
      owners += (owners.empty() ? "" : ", ") + a->dataset + " -> shard" +
                std::to_string(env->router->ring().ShardFor(a->dataset));
    }
    report.Note("shard_of", owners);
  }

  const engine::MetricsSnapshot m0 = SumSnapshots(env->Contexts());
  const uint64_t journal0 = routed ? DirBytes(env->journal_root) : 0;
  const uint64_t rejects0 =
      routed ? env->router->stats().rejected_backpressure : 0;
  const double stop_at = NowSeconds() + o.seconds;
  Window w = MeasureWindow(env->analysts.size(), o.seconds, [&](size_t i) {
    env->analysts[i]->Until(stop_at);
  });
  const engine::MetricsSnapshot m1 = SumSnapshots(env->Contexts());
  const uint64_t journal1 = routed ? DirBytes(env->journal_root) : 0;
  const uint64_t rejects1 =
      routed ? env->router->stats().rejected_backpressure : 0;
  const double peak_rss = PeakRssMiB();

  // ---- Counts and end-to-end metrics ----
  std::vector<double> latencies_ms;
  std::vector<const ReleaseOp*> window_ops;
  std::vector<double> done_at;
  std::map<std::string, uint64_t> released_per_dataset;
  for (const auto& a : env->analysts) {
    if (!a->error.empty()) report.Note("first_error." + a->tenant, a->error);
    for (const ReleaseOp& op : a->ops) {
      ++report.attempted;
      if (!op.ok) {
        ++report.failed;
        continue;
      }
      ++released_per_dataset[a->dataset];
      if (!op.in_window) continue;
      window_ops.push_back(&op);
      latencies_ms.push_back(op.rtt_s * 1e3);
      done_at.push_back(op.done_at);
    }
  }
  const double ops = static_cast<double>(std::max<size_t>(1, window_ops.size()));
  report.Note("steal_share", Fmt("%.4f", w.steal));
  report.Note("window", Fmt("%.3f s", w.elapsed_s) + ", " +
                            std::to_string(window_ops.size()) + " releases");
  NoteSetups(report, setup_s, setup_cpu_s);
  report.Note("whole_window",
              Fmt("%.4f ops/s", static_cast<double>(window_ops.size()) /
                                     w.elapsed_s) +
                  Fmt(", p50 %.4f ms", Quantile(latencies_ms, 0.5)) +
                  Fmt(", p90 %.4f ms", Quantile(latencies_ms, 0.9)) +
                  Fmt(", %.4f program CPU ms/op",
                      (w.process_cpu_s - w.load_cpu_s) / ops * 1e3));
  NoteTail(report, latencies_ms);
  const CalmFigures calm = OverCalmerHalf(w, done_at, latencies_ms);
  report.Note("calmer_half", std::to_string(calm.slices) + " of " +
                                 std::to_string(w.slice_steal.size()) +
                                 Fmt(" seconds, mean steal %.4f", calm.steal));
  if (!o.trace) {
    NoteWallClock(report, calm.ops_per_s, calm.p50_ms, calm.p90_ms);
    report.Set("cpu_ms_per_op", calm.cpu_ms_per_op, "ms");
    report.Set("setup_s", CalmMedian(setup_cpu_s, setup_steal), "s");
    report.Note("peak_rss_mb", Fmt("%.6g", peak_rss));
  } else {
    report.Note("traced_ops_per_s", Fmt("%.4f", calm.ops_per_s));
    // ---- Per-layer breakdown: spans joined on the idempotency key ----
    std::vector<double> parse, optimize, compile, queue, sample, map, reduce,
        enforce, residual, routed_rtt, direct_rtt;
    size_t hits = 0, unmatched = 0, negative = 0;
    std::ofstream trace(TracePath(o));
    for (const ReleaseOp* op : window_ops) {
      CompileSpans c;
      if (!env->spans.Find(op->nonce, op->seq, &c)) {
        ++unmatched;
        continue;
      }
      const double res = op->rtt_s - c.Total() - op->queue_s -
                         op->phases.total;
      if (res < 0) ++negative;
      parse.push_back(c.parse_s * 1e3);
      optimize.push_back(c.optimize_s * 1e3);
      compile.push_back(c.compile_s * 1e3);
      queue.push_back(op->queue_s * 1e3);
      sample.push_back(op->phases.sample * 1e3);
      map.push_back(op->phases.map * 1e3);
      reduce.push_back(op->phases.reduce * 1e3);
      enforce.push_back(op->phases.enforce * 1e3);
      residual.push_back(res * 1e3);
      (op->direct ? direct_rtt : routed_rtt).push_back(op->rtt_s * 1e3);
      if (op->cache_hit) ++hits;
      JsonObject line;
      line.String("id", std::to_string(op->nonce) + ":" +
                            std::to_string(op->seq));
      line.String("workload", o.workload);
      line.String("route", op->direct ? "direct" : (routed ? "router" : "server"));
      line.Number("request_ms", op->rtt_s * 1e3);
      line.Number("relational.parse_ms", c.parse_s * 1e3);
      line.Number("relational.optimize_ms", c.optimize_s * 1e3);
      line.Number("queries.compile_ms", c.compile_s * 1e3);
      line.Number("service.queue_ms", op->queue_s * 1e3);
      line.Number("upa.sample_ms", op->phases.sample * 1e3);
      line.Number("upa.map_ms", op->phases.map * 1e3);
      line.Number("upa.reduce_ms", op->phases.reduce * 1e3);
      line.Number("upa.enforce_ms", op->phases.enforce * 1e3);
      line.Number("upa.total_ms", op->phases.total * 1e3);
      line.Number("net.residual_ms", res * 1e3);
      line.Bool("sens_cache_hit", op->cache_hit);
      trace << line.Render() << "\n";
    }
    report.Note("trace_file", TracePath(o));
    report.Note("trace_spans", std::to_string(parse.size()) + " requests, " +
                                   std::to_string(unmatched) + " unmatched, " +
                                   std::to_string(negative) +
                                   " with negative residual");
    if (unmatched > 0) {
      report.failures.push_back(std::to_string(unmatched) +
                                " requests without compiler spans");
    }
    report.Set("relational.parse_ms", Mean(parse), "ms");
    report.Set("relational.optimize_ms", Mean(optimize), "ms");
    report.Set("queries.compile_ms", Mean(compile), "ms");
    report.Set("service.queue_ms", Mean(queue), "ms");
    report.Set("upa.sample_ms", Mean(sample), "ms");
    report.Set("upa.map_ms", Mean(map), "ms");
    report.Set("upa.reduce_ms", Mean(reduce), "ms");
    report.Set("upa.enforce_ms", Mean(enforce), "ms");
    report.Set("net.residual_ms", Mean(residual), "ms");
    report.Set("service.sens_cache_hit_ratio",
               static_cast<double>(hits) / ops, "ratio");
    if (routed) {
      report.Set("cluster.hop_ms", Median(routed_rtt) - Median(direct_rtt),
                 "ms");
      report.Set("cluster.backpressure_rejects",
                 static_cast<double>(rejects1 - rejects0), "count");
      report.Set("service.journal_bytes_per_op",
                 static_cast<double>(journal1 - journal0) / ops, "B");
    }
    AddEngineMetrics(report, m0, m1, ops);
    ZeroAbsentLayers(report);
  }

  // ---- Correctness, computed apart from the program ----
  Oracle oracle(*env->data);
  ReleaseChecker checker(kEpsilon);
  for (const auto& a : env->analysts) {
    if (a->broken) {
      report.failures.push_back(a->tenant + ": connection broke: " + a->error);
    }
    for (const ReleaseShape& shape : a->shapes) checker.Expect(shape.label);
    std::map<std::string, ReleaseTruth> truths;  // by SQL
    for (const ReleaseOp& op : a->ops) {
      if (!op.ok) continue;
      const ReleaseShape& shape = a->shapes[op.shape];
      std::string sql = shape.Sql();
      auto it = truths.find(sql);
      if (it == truths.end()) {
        it = truths.emplace(sql, oracle.Evaluate(shape)).first;
      }
      checker.Observe(shape.label, it->second, op.released, op.in_window);
    }
  }
  for (const std::string& v : checker.Finish()) report.failures.push_back(v);

  // Budget conservation: every success was charged ε exactly once, on the
  // shard that owns the dataset.
  for (const auto& [dataset, n] : released_per_dataset) {
    double spent = 0.0;
    for (const auto& s : env->servers) spent += s->service->accountant().Spent(dataset);
    if (!SpentMatches(spent, n, kEpsilon)) {
      report.failures.push_back(
          "accountant: " + dataset + " spent " + Fmt("%.6f", spent) +
          ", expected " + Fmt("%.6f", kEpsilon * static_cast<double>(n)));
    }
  }
  report.Note("checked_releases", std::to_string(checker.observed()));
  return report;
}

// ---------------------------------------------------------------------------
// grouped_local: grouped SELECTs through ParseSqlSelect + ExecuteSelect.

GroupShape Group(std::string label, bool join, std::string table,
                 std::string key, bool sum, std::string sum_column,
                 std::vector<Pred> preds, int64_t having,
                 GroupShape::Order order, int64_t limit) {
  GroupShape g;
  g.label = std::move(label);
  g.join = join;
  g.table = std::move(table);
  g.key = std::move(key);
  g.sum = sum;
  g.sum_column = std::move(sum_column);
  g.preds = std::move(preds);
  g.having_min_count = having;
  g.order = order;
  g.limit = limit;
  return g;
}

/// Five templates, so p50 and p90 each fall inside one template's block of
/// latencies rather than on a boundary between two. Each HAVING is set to
/// cut groups the ORDER BY/LIMIT would otherwise return.
constexpr size_t kGroupTemplates = 5;

GroupShape GroupTemplate(size_t k, std::mt19937_64& rng, size_t orders) {
  using O = GroupShape::Order;
  switch (k) {
    case 0:  // 2 groups
      return Group("flag", false, "lineitem", "l_returnflag", true,
                   "l_extendedprice", {P("l_shipdate", kLt, Int(rng, 800, 2400))},
                   -1, O::kKey, -1);
    case 1: {  // 5 groups; HAVING at the mean group size keeps about half
      const int64_t from = std::uniform_int_distribution<int64_t>(0, 1500)(rng);
      const int64_t mean = static_cast<int64_t>(orders) *
                           (tpch::kDateSpanDays - from) /
                           (5 * tpch::kDateSpanDays);
      return Group("priority", false, "orders", "o_orderpriority", false, "",
                   {P("o_orderdate", kGe, std::to_string(from))}, mean,
                   O::kCountDesc, -1);
    }
    case 2:  // one group per supplier: orders / 100
      return Group("supplier", false, "lineitem", "l_suppkey", true,
                   "l_quantity", {P("l_discount", kLt, Dec(rng, 0.03, 0.1))},
                   -1, O::kSumDesc, 10);
    case 3:  // one group per ordering customer: up to orders / 10
      return Group("customer", true, "", "o_custkey", true, "l_extendedprice",
                   {P("l_shipdate", kGe, Int(rng, 0, 1200))}, 5, O::kSumAsc,
                   20);
    default:  // one group per ordered part: up to orders / 5
      return Group("part", false, "lineitem", "l_partkey", true,
                   "l_extendedprice", {P("l_shipdate", kGe, Int(rng, 0, 1200))},
                   2, O::kSumAsc, 20);
  }
}

struct GroupOp {
  GroupShape shape;
  size_t round = 0;  // timed-window round
  bool in_window = false;
  bool ok = false;
  std::string error;
  double latency_s = 0.0;
  double parse_s = 0.0;
  double execute_s = 0.0;
  rel::SqlResultSet result;
};

struct GroupEnv {
  std::unique_ptr<tpch::TpchDataset> data;
  std::unique_ptr<engine::ExecContext> ctx;
  rel::Catalog catalog;
  std::mt19937_64 rng;
  std::vector<GroupOp> ops;

  void Step(size_t k, bool in_window) {
    GroupOp op;
    op.shape = GroupTemplate(k, rng, data->config().num_orders);
    op.in_window = in_window;
    const std::string sql = op.shape.Sql();
    const double t0 = NowSeconds();
    Result<rel::SqlSelect> parsed = rel::ParseSqlSelect(sql);
    const double t1 = NowSeconds();
    if (parsed.ok()) {
      Result<rel::SqlResultSet> result =
          rel::ExecuteSelect(ctx.get(), catalog, parsed.value());
      if (result.ok()) {
        op.ok = true;
        op.result = std::move(result).value();
      } else {
        op.error = result.status().ToString();
      }
    } else {
      op.error = parsed.status().ToString();
    }
    const double t2 = NowSeconds();
    op.parse_s = t1 - t0;
    op.execute_s = t2 - t1;
    op.latency_s = t2 - t0;
    ops.push_back(std::move(op));
  }
};

std::unique_ptr<GroupEnv> SetupGrouped(const RunOptions& o) {
  auto env = std::make_unique<GroupEnv>();
  tpch::TpchConfig cfg;
  cfg.num_orders = OrdersFor(o);
  cfg.seed = o.seed;
  env->data = std::make_unique<tpch::TpchDataset>(cfg);
  engine::ExecConfig exec;
  // One worker plus the calling thread: a larger pool spent about half as
  // much CPU again per query for a small speedup, and its parallel sections
  // made the figures swing with host steal.
  exec.threads = 1;
  env->ctx = std::make_unique<engine::ExecContext>(exec);
  env->catalog = env->data->catalog();
  std::seed_seq seq{o.seed, uint64_t{0x67726f7570}};
  env->rng.seed(seq);
  // Warm-up: the three cheap templates touch lineitem and orders, which
  // builds their columnar forms and column statistics.
  for (size_t k = 0; k < 3; ++k) env->Step(k, false);
  return env;
}

RunReport RunGrouped(const RunOptions& o) {
  RunReport report;
  std::vector<double> setup_s, setup_cpu_s, setup_steal;
  std::unique_ptr<GroupEnv> env;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    env.reset();
    const HostCpu host0 = ReadHostCpu();
    const double t0 = NowSeconds();
    const double c0 = ProcessCpuSeconds();
    env = SetupGrouped(o);
    setup_cpu_s.push_back(ProcessCpuSeconds() - c0);
    setup_s.push_back(NowSeconds() - t0);
    setup_steal.push_back(StealShare(host0, ReadHostCpu()));
  }

  NoteRows(report, *env->data);
  const engine::MetricsSnapshot m0 = SumSnapshots({env->ctx.get()});
  const double stop_at = NowSeconds() + o.seconds;
  // The caller's thread runs engine work itself (ExecuteSelect help-runs
  // its morsels), so its CPU counts as the program's: no load CPU is
  // subtracted here.
  // One round runs every template once; rounds are this workload's
  // slices, and the calmer half of them (by host steal) gives the figures.
  std::vector<double> round_s, round_cpu_s, round_steal;
  Window w = MeasureWindow(1, o.seconds, [&](size_t) {
    do {
      const HostCpu h0 = ReadHostCpu();
      const double t0 = NowSeconds();
      const double c0 = ProcessCpuSeconds();
      for (size_t k = 0; k < kGroupTemplates; ++k) {
        env->Step(k, true);
        env->ops.back().round = round_s.size();
      }
      round_s.push_back(NowSeconds() - t0);
      round_cpu_s.push_back(ProcessCpuSeconds() - c0);
      round_steal.push_back(StealShare(h0, ReadHostCpu()));
    } while (NowSeconds() < stop_at);
  });
  const engine::MetricsSnapshot m1 = SumSnapshots({env->ctx.get()});
  const double peak_rss = PeakRssMiB();

  const std::vector<bool> calm = CalmerHalf(round_steal);
  std::vector<double> latencies_ms, calm_latencies_ms, parse_ms, execute_ms;
  std::map<std::string, std::vector<double>> by_label;
  for (const GroupOp& op : env->ops) {
    ++report.attempted;
    if (!op.ok) {
      if (report.failed++ == 0) report.Note("first_error", op.error);
      continue;
    }
    if (!op.in_window) continue;
    latencies_ms.push_back(op.latency_s * 1e3);
    if (calm[op.round]) calm_latencies_ms.push_back(op.latency_s * 1e3);
    parse_ms.push_back(op.parse_s * 1e3);
    execute_ms.push_back(op.execute_s * 1e3);
    by_label[op.shape.label].push_back(op.latency_s * 1e3);
  }
  const double ops = static_cast<double>(std::max<size_t>(1, latencies_ms.size()));
  double calm_s = 0.0, calm_cpu_s = 0.0, calm_rounds = 0.0, calm_steal = 0.0;
  for (size_t r = 0; r < round_s.size(); ++r) {
    if (!calm[r]) continue;
    calm_rounds += 1.0;
    calm_s += round_s[r];
    calm_cpu_s += round_cpu_s[r];
    calm_steal += round_steal[r];
  }
  const double templates = static_cast<double>(kGroupTemplates);
  const double ops_per_s = templates * calm_rounds / calm_s;
  report.Note("calmer_half",
              Fmt("%.0f", calm_rounds) + " of " +
                  std::to_string(round_s.size()) +
                  Fmt(" rounds, mean steal %.4f", calm_steal / calm_rounds));
  report.Note("steal_share", Fmt("%.4f", w.steal));
  report.Note("window", Fmt("%.3f s", w.elapsed_s) + ", " +
                            std::to_string(latencies_ms.size()) + " queries in " +
                            std::to_string(round_s.size()) + " rounds");
  NoteSetups(report, setup_s, setup_cpu_s);
  report.Note("whole_window",
              Fmt("%.4f ops/s", static_cast<double>(latencies_ms.size()) /
                                     w.elapsed_s) +
                  Fmt(", %.4f CPU ms/op", w.process_cpu_s / ops * 1e3));
  for (const auto& [label, lat] : by_label) {
    report.Note("median_ms." + label, Fmt("%.3f", Median(lat)));
  }
  NoteTail(report, latencies_ms);
  if (!o.trace) {
    // With five templates per round, p50 and p90 fall inside the blocks of
    // the third- and fifth-fastest templates.
    NoteWallClock(report, ops_per_s, Quantile(calm_latencies_ms, 0.5),
                  Quantile(calm_latencies_ms, 0.9));
    report.Set("cpu_ms_per_op", calm_cpu_s / (templates * calm_rounds) * 1e3,
               "ms");
    report.Set("setup_s", CalmMedian(setup_cpu_s, setup_steal), "s");
    report.Note("peak_rss_mb", Fmt("%.6g", peak_rss));
  } else {
    report.Note("traced_ops_per_s", Fmt("%.4f", ops_per_s));
    std::ofstream trace(TracePath(o));
    size_t id = 0;
    for (const GroupOp& op : env->ops) {
      if (!op.ok || !op.in_window) continue;
      JsonObject line;
      line.String("id", std::to_string(++id));
      line.String("workload", o.workload);
      line.String("template", op.shape.label);
      line.Number("request_ms", op.latency_s * 1e3);
      line.Number("relational.parse_ms", op.parse_s * 1e3);
      line.Number("relational.execute_ms", op.execute_s * 1e3);
      trace << line.Render() << "\n";
    }
    report.Note("trace_file", TracePath(o));
    report.Set("relational.parse_ms", Mean(parse_ms), "ms");
    report.Set("relational.execute_ms", Mean(execute_ms), "ms");
    AddEngineMetrics(report, m0, m1, ops);
    ZeroAbsentLayers(report);
  }

  Oracle oracle(*env->data);
  std::map<std::string, std::vector<GroupRow>> expected;  // by SQL
  size_t checked = 0;
  for (const GroupOp& op : env->ops) {
    if (!op.ok) continue;
    const std::string sql = op.shape.Sql();
    auto it = expected.find(sql);
    if (it == expected.end()) {
      it = expected.emplace(sql, oracle.EvaluateGroups(op.shape)).first;
    }
    std::string diff = CompareGroups(op.shape, it->second, op.result);
    ++checked;
    if (!diff.empty() && report.failures.size() < 10) {
      report.failures.push_back(sql + ": " + diff);
    }
  }
  report.Note("checked_queries", std::to_string(checked));
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "cached_routed", "fresh_direct", "grouped_local"};
  return kNames;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  std::filesystem::create_directories(options.work_dir);
  if (options.workload == "grouped_local") {
    report = RunGrouped(options);
  } else {
    report = RunRelease(options);
  }
  report.header.insert(report.header.begin(),
                       {"orders", std::to_string(OrdersFor(options))});
  const std::string counts = CheckCounts(report.attempted, report.failed);
  if (!counts.empty()) report.failures.push_back(counts);
  return report;
}

}  // namespace dpbench
