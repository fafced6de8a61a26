// Network front door over the private TPC-H dataset: a TCP server that
// accepts SQL aggregates on the UPA wire protocol and answers with
// iDP-protected releases. The full stack: epoll event loop → wire decode →
// SQL parser → logical plan → UpaService (admission, budget, sensitivity
// cache) → UPA pipeline → response frame.
//
// Usage:
//   upa_server              # demo: serve on an ephemeral port and run the
//                           # built-in queries against it over loopback
//   upa_server <port>       # serve until stdin closes (Ctrl-D) or EOF
//
// Query it with examples/upa_client:
//   upa_client <port> "SELECT COUNT(*) FROM lineitem" lineitem
//   upa_client <port> --stats
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "net/client.h"
#include "net/server.h"
#include "queries/plan_query.h"
#include "relational/optimizer.h"
#include "relational/sql_parser.h"
#include "service/service.h"

using namespace upa;

namespace {

/// WireQuery → QueryInstance: parse the SQL, push filters down, and wrap
/// the plan as a UPA query whose privacy unit is the request's dataset_id
/// (one record of that table).
net::QueryCompiler MakeSqlCompiler(
    engine::ExecContext* ctx,
    std::shared_ptr<const rel::PlanExecutor> executor,
    const tpch::TpchDataset* data) {
  return [ctx, executor, data](
             const net::WireQuery& wire) -> Result<core::QueryInstance> {
    if (wire.dataset_id.empty()) {
      return Status::InvalidArgument(
          "dataset_id must name the private table");
    }
    Result<rel::PlanPtr> parsed = rel::ParseSql(wire.sql);
    if (!parsed.ok()) {
      // Distinguish "malformed SQL" from "valid single-block SELECT that is
      // wider than the DP surface" (GROUP BY, HAVING, multiple items, ...).
      // The wire releases one noisy scalar per query; per-group release
      // needs DP partition selection for the key sets (ROADMAP 1b).
      if (rel::ParseSqlSelect(wire.sql).ok()) {
        return Status::Unsupported(
            "grouped/multi-item SELECT is not releasable over the wire; the "
            "DP surface takes a single bare COUNT or SUM aggregate (run "
            "grouped queries locally via sql_console)");
      }
      return parsed.status();
    }
    // An unknown column must be refused here: the release pipeline treats
    // a failing phase run as a bug and aborts the process.
    UPA_RETURN_IF_ERROR(rel::CheckPlanColumns(parsed.value(), data->catalog()));
    // Cost-based optimization (pushdown + reorder + hints): bit-identical
    // results, so sensitivities and the DP release are unaffected.
    rel::OptimizerOptions opt;
    opt.private_table = wire.dataset_id;
    rel::PlanPtr plan =
        rel::Optimize(parsed.value(), data->catalog(), opt);
    rel::PlanStats stats = rel::AnalyzePlan(plan);
    if (stats.agg != rel::AggKind::kCount &&
        stats.agg != rel::AggKind::kSum) {
      return Status::Unsupported(
          "only COUNT/SUM aggregates release over the wire (AVG/MIN/MAX "
          "need the COUNT+SUM rewrite)");
    }
    bool scans_private = false;
    for (const std::string& table : stats.tables) {
      if (table == wire.dataset_id) scans_private = true;
    }
    if (!scans_private) {
      return Status::InvalidArgument("query does not scan private table '" +
                                     wire.dataset_id + "'");
    }
    tpch::TpchQuery query;
    query.name = "sql:" + wire.sql.substr(0, 40);
    query.plan = plan;
    query.private_table = wire.dataset_id;
    // Already optimized above; don't optimize again inside MakePlanQuery.
    return queries::MakePlanQuery(ctx, executor, data, query, nullptr,
                                  /*optimize=*/false);
  };
}

int RunDemo(net::Server& server) {
  auto connected = net::Client::Connect("127.0.0.1", server.port());
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::Client> client = std::move(connected).value();

  struct Demo {
    const char* sql;
    const char* dataset;
  };
  const std::vector<Demo> demos = {
      {"SELECT COUNT(*) FROM lineitem", "lineitem"},
      {"SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
       "WHERE l_shipdate >= 365 AND l_shipdate < 730",
       "lineitem"},
      // A literal repeat: served from the sensitivity cache.
      {"SELECT COUNT(*) FROM lineitem", "lineitem"},
      // A grouped query: valid single-block SQL, but wider than the wire's
      // DP surface — the server answers with a clean Unsupported status.
      {"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag",
       "lineitem"},
  };
  for (const Demo& demo : demos) {
    net::WireQuery query;
    query.tenant = "demo";
    query.dataset_id = demo.dataset;
    query.epsilon = 0.5;
    query.seed = 2026;
    query.sql = demo.sql;
    auto result = client->Query(query);
    if (!result.ok()) {
      std::fprintf(stderr, "transport error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const net::WireResult& wire = result.value();
    std::printf("sql>     %s\n", demo.sql);
    if (!wire.ok()) {
      std::printf("error:   %s\n\n", wire.status().ToString().c_str());
      continue;
    }
    std::printf("released = %.4f   (eps=%.2f, sensitivity %.4g%s)\n\n",
                wire.response.released, wire.response.epsilon,
                wire.response.local_sensitivity,
                wire.response.sensitivity_cache_hit
                    ? ", cached sensitivity"
                    : "");
  }
  auto stats = client->Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "stats: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", stats.value().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tpch::TpchConfig cfg;
  cfg.num_orders = 2000;
  tpch::TpchDataset data(cfg);
  engine::ExecContext ctx;
  rel::Catalog catalog = data.catalog();
  auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);

  service::ServiceConfig service_cfg;
  service_cfg.upa.epsilon = 0.5;
  service_cfg.budget_per_dataset = 16.0;
  service::UpaService service(&ctx, service_cfg);

  net::ServerConfig net_cfg;
  if (argc >= 2) net_cfg.port = static_cast<uint16_t>(std::atoi(argv[1]));
  net::Server server(&service, MakeSqlCompiler(&ctx, executor, &data),
                     net_cfg);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  if (argc < 2) {
    int rc = RunDemo(server);
    server.Stop();
    return rc;
  }

  std::printf("upa_server listening on 127.0.0.1:%u (Ctrl-D to stop)\n",
              server.port());
  std::fflush(stdout);
  // Serve until stdin closes — works interactively and under a harness.
  char buf[256];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
  }
  server.Stop();
  std::printf("%s", service.StatsReport().c_str());
  return 0;
}
