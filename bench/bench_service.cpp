// End-to-end service bench: SQL in at the TCP front door, iDP release out.
// One number per query for the full stack — wire encode/decode, the epoll
// event loop, admission + budget accounting, sensitivity inference (UPA's
// sample/domain phase runs on the columnar engine with fused kernels), and
// the Laplace release — so regressions anywhere in the path show up here
// even when the per-layer benches stay flat.
//
// Two sections:
//   * latency — each SQL query round-trips on an idle connection; best of
//     UPA_RUNS (first iteration discarded separately as "cold", since it
//     pays sensitivity inference before the cache warms). Every warm run
//     is a sensitivity-cache hit: no domain run, no neighbour outputs;
//   * throughput — UPA_PIPELINE-deep windows of the query mix from
//     concurrent connections, wall-clock queries/sec.
//
// Emits BENCH_service.json (override with UPA_BENCH_JSON), headed by the
// host facts (nproc, compiler, build type, commit). Knobs:
// UPA_ORDERS, UPA_RUNS, UPA_THREADS, UPA_PIPELINE, UPA_SEED.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/harness.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/server.h"
#include "queries/plan_query.h"
#include "relational/optimizer.h"
#include "relational/sql_parser.h"
#include "service/service.h"

using namespace upa;

namespace {

/// The upa_server compiler, minus the demo printing: SQL → optimized plan
/// → QueryInstance over the request's private table.
net::QueryCompiler MakeSqlCompiler(
    engine::ExecContext* ctx,
    std::shared_ptr<const rel::PlanExecutor> executor,
    const tpch::TpchDataset* data) {
  return [ctx, executor, data](
             const net::WireQuery& wire) -> Result<core::QueryInstance> {
    Result<rel::PlanPtr> parsed = rel::ParseSql(wire.sql);
    if (!parsed.ok()) return parsed.status();
    rel::OptimizerOptions opt;
    opt.private_table = wire.dataset_id;
    rel::PlanPtr plan = rel::Optimize(parsed.value(), data->catalog(), opt);
    tpch::TpchQuery query;
    query.name = "sql:" + wire.sql.substr(0, 40);
    query.plan = plan;
    query.private_table = wire.dataset_id;
    return queries::MakePlanQuery(ctx, executor, data, query, nullptr,
                                  /*optimize=*/false);
  };
}

struct BenchQuery {
  const char* name;
  const char* sql;
  const char* dataset;
};

const std::vector<BenchQuery>& Queries() {
  static const std::vector<BenchQuery> queries = {
      {"count_all", "SELECT COUNT(*) FROM lineitem", "lineitem"},
      {"count_filtered",
       "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25", "lineitem"},
      {"sum_revenue",
       "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
       "WHERE l_shipdate >= 365 AND l_shipdate < 730",
       "lineitem"},
      {"count_join",
       "SELECT COUNT(*) FROM orders JOIN lineitem "
       "ON o_orderkey = l_orderkey WHERE o_orderpriority = '1-URGENT'",
       "lineitem"},
  };
  return queries;
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr
             ? fallback
             : static_cast<size_t>(std::strtoull(value, nullptr, 10));
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main() {
  bench::BenchEnv env = bench::BenchEnv::FromEnv();
  const size_t threads = env.threads == 0 ? 4 : env.threads;
  const size_t window = EnvSize("UPA_PIPELINE", 8);
  bench::PrintBanner("Service end-to-end — SQL over the wire", env);
  std::printf("engine pool threads: %zu, pipeline window: %zu\n\n", threads,
              window);

  tpch::TpchDataset data(tpch::TpchConfig{.num_orders = env.orders,
                                          .max_lineitems_per_order = 7,
                                          .reference_skew = 1.1,
                                          .seed = env.seed});
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = threads, .default_partitions = 4});
  rel::Catalog catalog = data.catalog();
  auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);

  service::ServiceConfig config;
  config.upa = env.MakeUpaConfig();
  config.budget_per_dataset = 1e9;  // latency, not budget, under test
  config.max_in_flight = threads;
  service::UpaService svc(&ctx, config);

  net::ServerConfig net_cfg;
  net_cfg.max_pipelined_per_connection = window;
  net::Server server(&svc, MakeSqlCompiler(&ctx, executor, &data), net_cfg);
  Status started = server.Start();
  UPA_CHECK_MSG(started.ok(), started.ToString());

  // --- Latency: sequential round-trips on one idle connection.
  auto connected = net::Client::Connect("127.0.0.1", server.port());
  UPA_CHECK_MSG(connected.ok(), connected.status().ToString());
  std::unique_ptr<net::Client> client = std::move(connected).value();

  std::string latency_json;
  TablePrinter ltable({"query", "cold (ms)", "warm best (ms)", "released"});
  for (const BenchQuery& q : Queries()) {
    double cold = 0.0, warm = 1e100, released = 0.0;
    for (size_t r = 0; r < std::max<size_t>(env.runs, 2); ++r) {
      net::WireQuery wire;
      wire.tenant = "bench";
      wire.dataset_id = q.dataset;
      wire.epsilon = 0.1;
      wire.seed = env.seed + r;
      wire.sql = q.sql;
      Stopwatch timer;
      auto result = client->Query(wire);
      const double dt = timer.ElapsedSeconds();
      UPA_CHECK_MSG(result.ok(), result.status().ToString());
      UPA_CHECK_MSG(result.value().ok(), result.value().status().ToString());
      released = result.value().response.released;
      if (r == 0) {
        cold = dt;  // pays sensitivity inference; later runs hit the cache
      } else {
        warm = std::min(warm, dt);
      }
    }
    ltable.AddRow({q.name, TablePrinter::FormatDouble(cold * 1e3, 3),
                   TablePrinter::FormatDouble(warm * 1e3, 3),
                   TablePrinter::FormatDouble(released, 1)});
    if (!latency_json.empty()) latency_json += ",\n";
    latency_json += "    {\"name\": \"" + std::string(q.name) +
                    "\", \"cold_ms\": " + JsonNum(cold * 1e3) +
                    ", \"warm_ms\": " + JsonNum(warm * 1e3) + "}";
  }
  client.reset();
  ltable.Print("end-to-end latency per SQL query (one idle connection)");

  // --- Throughput: concurrent connections, pipelined query mix.
  std::string throughput_json;
  TablePrinter ttable({"clients", "queries", "wall (ms)", "q/s"});
  for (size_t clients : {1u, 2u, 4u}) {
    const size_t per_client = env.runs * Queries().size();
    Stopwatch wall;
    std::vector<std::thread> workers;
    for (size_t i = 0; i < clients; ++i) {
      workers.emplace_back([&, i] {
        auto conn = net::Client::Connect("127.0.0.1", server.port());
        UPA_CHECK_MSG(conn.ok(), conn.status().ToString());
        std::unique_ptr<net::Client> c = std::move(conn).value();
        std::deque<uint64_t> outstanding;
        auto await_one = [&] {
          uint64_t tag = outstanding.front();
          outstanding.pop_front();
          auto result = c->Await(tag);
          UPA_CHECK_MSG(result.ok(), result.status().ToString());
          UPA_CHECK_MSG(result.value().ok(),
                        result.value().status().ToString());
        };
        for (size_t q = 0; q < per_client; ++q) {
          if (outstanding.size() >= window) await_one();
          const BenchQuery& bq = Queries()[q % Queries().size()];
          net::WireQuery wire;
          wire.tenant = "t" + std::to_string(i);
          wire.dataset_id = bq.dataset;
          wire.epsilon = 0.1;
          wire.seed = env.seed + i * 100003 + q;
          wire.sql = bq.sql;
          auto tag = c->Send(wire);
          UPA_CHECK_MSG(tag.ok(), tag.status().ToString());
          outstanding.push_back(tag.value());
        }
        while (!outstanding.empty()) await_one();
      });
    }
    for (auto& worker : workers) worker.join();
    const double wall_seconds = wall.ElapsedSeconds();
    const size_t queries = clients * per_client;
    ttable.AddRow({std::to_string(clients), std::to_string(queries),
                   TablePrinter::FormatDouble(wall_seconds * 1e3, 2),
                   TablePrinter::FormatDouble(queries / wall_seconds, 1)});
    if (!throughput_json.empty()) throughput_json += ",\n";
    throughput_json +=
        "    {\"clients\": " + std::to_string(clients) +
        ", \"queries\": " + std::to_string(queries) +
        ", \"wall_ms\": " + JsonNum(wall_seconds * 1e3) +
        ", \"qps\": " + JsonNum(queries / wall_seconds) + "}";
  }
  ttable.Print("throughput vs concurrent wire clients (mixed SQL)");
  server.Stop();

  const char* path_env = std::getenv("UPA_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_service.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  UPA_CHECK_MSG(f != nullptr, "cannot open " + path);
  std::fprintf(f,
               "{\n  \"experiment\": \"service_e2e\",\n"
               "  \"host\": %s,\n"
               "  \"orders\": %zu,\n  \"runs\": %zu,\n  \"threads\": %zu,\n"
               "  \"pipeline\": %zu,\n  \"seed\": %llu,\n"
               "  \"latency\": [\n%s\n  ],\n"
               "  \"throughput\": [\n%s\n  ]\n}\n",
               bench::HostJson().c_str(), env.orders, env.runs, threads,
               window, static_cast<unsigned long long>(env.seed),
               latency_json.c_str(), throughput_json.c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
