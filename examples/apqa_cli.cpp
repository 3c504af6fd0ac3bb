// apqa_cli — a scriptable command-line front end over the db:: facade.
//
// Reads commands from a script file (or runs the built-in demo with no
// arguments). One command per line; '#' starts a comment:
//
//   roles <r1> <r2> ...                      define the role universe
//   table <name> bits=<n> <attr:min:max>...  declare a table schema
//   row <table> <v1,v2,..> <policy> <value>  stage a row
//   build <table>                            sign + outsource the table
//   enroll <user> <r1,r2,...>                create a verifying client
//   range <user> <table> <lo,..> <hi,..>     authenticated range query
//   eq <user> <table> <v1,..>                authenticated equality query
//
// Every query is verified client-side; the tool prints the verified rows
// and the VO size.
//
// Two extra subcommands run the demo deployment as a real TCP service
// (src/net/). Keys are derived deterministically from --seed, so a server
// and any number of clients rebuild the same trust anchors independently —
// no key files change hands:
//
//   apqa_cli serve [--port=N] [--seed=N] [--workers=N] [--queue=N]
//                  [--state-dir=DIR]
//   apqa_cli query [--port=N | --endpoints=p1,p2,..] [--seed=N]
//                  [--roles=r1,r2] [--deadline-ms=N] [--retries=N]
//                  eq <v1,v2,..> | range <lo,..> <hi,..>
//   apqa_cli update [--port=N] [--seed=N] [--deadline-ms=N] [--retries=N]
//                   upsert <v1,v2,..> <policy> <value> | delete <v1,v2,..>
//                   [more ops...]
//
// `update` acts as the data owner: it rebuilds the epoch-0 demo ADS from
// the seed, applies the listed ops as ONE batch (advancing the epoch to 1),
// and pushes the signed delta to the server. Re-running the same push is
// idempotent (the server acks already-applied); queries issued after the
// push verify against the new epoch automatically.
//
// `--state-dir` makes the served ADS crash-recoverable: applied updates are
// journaled before they are acked, SIGINT/SIGTERM drain writes a final
// snapshot, and a restarted server recovers to the highest durable epoch
// (snapshot + WAL replay through the full validate-then-apply gate).
//
// `--endpoints` (comma-separated ports, or host:port pairs) queries a
// replicated deployment through the failover client: unhealthy replicas are
// circuit-broken, and a replica whose answer fails verification — or whose
// epoch rolled back — is quarantined for the life of the process.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/sp_storage.h"
#include "db/database.h"
#include "net/client.h"
#include "net/replica_client.h"
#include "net/server.h"
#include "net/socket_transport.h"

using namespace apqa;
using namespace apqa::db;

namespace {

std::vector<std::string> Split(const std::string& s, char sep = ' ') {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<double> ParseDoubles(const std::string& s) {
  std::vector<double> out;
  for (const auto& tok : Split(s, ',')) out.push_back(std::stod(tok));
  return out;
}

const char* kDemoScript = R"(# Built-in demo: a hospital data mart.
roles Doctor Nurse Researcher
table vitals bits=4 heart_rate:30:220 temp:34:43
row vitals 72,36.6 Doctor|Nurse ward-A/patient-1
row vitals 95,38.2 Doctor ward-A/patient-2
row vitals 120,39.5 (Doctor&Researcher)|Nurse icu/patient-3
row vitals 61,36.1 Researcher cohort/anon-17
build vitals
enroll alice Nurse
enroll bob Researcher
range alice vitals 60,36 100,39
range bob vitals 60,36 130,40
eq alice vitals 95,38.2
)";

struct Cli {
  std::unique_ptr<OwnerDatabase> owner;
  std::unique_ptr<SpDatabase> sp;
  std::map<std::string, TableSchema> schemas;
  std::map<std::string, std::vector<Row>> staged;
  std::map<std::string, std::unique_ptr<ClientSession>> clients;

  int Run(std::istream& in) {
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      auto tokens = Split(line);
      if (tokens.empty()) continue;
      try {
        if (!Dispatch(tokens)) {
          std::fprintf(stderr, "line %d: unknown command '%s'\n", lineno,
                       tokens[0].c_str());
          return 1;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "line %d: %s\n", lineno, e.what());
        return 1;
      }
    }
    return 0;
  }

  bool Dispatch(const std::vector<std::string>& t) {
    const std::string& cmd = t[0];
    if (cmd == "roles") {
      RoleSet universe(t.begin() + 1, t.end());
      owner = std::make_unique<OwnerDatabase>(universe, /*seed=*/2018);
      sp = std::make_unique<SpDatabase>(owner->keys());
      std::printf("universe: %zu roles, keys generated\n", universe.size());
      return true;
    }
    if (cmd == "table") {
      int bits = 4;
      std::vector<AttributeSpec> attrs;
      for (std::size_t i = 2; i < t.size(); ++i) {
        if (t[i].rfind("bits=", 0) == 0) {
          bits = std::stoi(t[i].substr(5));
          continue;
        }
        auto parts = Split(t[i], ':');
        if (parts.size() != 3) throw std::invalid_argument("attr:min:max");
        attrs.push_back({parts[0], std::stod(parts[1]), std::stod(parts[2])});
      }
      schemas.emplace(t[1], TableSchema(t[1], attrs, bits));
      std::printf("table %s: %zu attrs, %d-bit grid\n", t[1].c_str(),
                  attrs.size(), bits);
      return true;
    }
    if (cmd == "row") {
      Row row;
      row.attrs = ParseDoubles(t[2]);
      row.policy = t[3];
      for (std::size_t i = 4; i < t.size(); ++i) {
        if (i > 4) row.value += ' ';
        row.value += t[i];
      }
      staged[t[1]].push_back(std::move(row));
      return true;
    }
    if (cmd == "build") {
      owner->CreateTable(schemas.at(t[1]), staged[t[1]]);
      auto bundle = owner->ExportTable(t[1]);
      if (!sp->ImportTable(bundle)) throw std::runtime_error("import failed");
      std::printf("built %s: %zu rows signed, ADS %.1f KB outsourced\n",
                  t[1].c_str(), staged[t[1]].size(), bundle.size() / 1024.0);
      return true;
    }
    if (cmd == "enroll") {
      auto roles_list = Split(t[2], ',');
      RoleSet roles(roles_list.begin(), roles_list.end());
      clients[t[1]] = std::make_unique<ClientSession>(owner->keys(),
                                                      owner->Enroll(roles));
      std::printf("enrolled %s with {%s}\n", t[1].c_str(), t[2].c_str());
      return true;
    }
    if (cmd == "range") {
      auto& client = *clients.at(t[1]);
      auto lo = ParseDoubles(t[3]), hi = ParseDoubles(t[4]);
      core::Vo vo = sp->Range(t[2], lo, hi, client.roles());
      std::vector<VerifiedRow> rows;
      core::VerifyResult verdict =
          client.VerifyRange(sp->GetSchema(t[2]), lo, hi, vo, &rows);
      if (!verdict.ok()) {
        throw std::runtime_error("VERIFICATION FAILED: " + verdict.ToString());
      }
      std::printf("%s range %s [%s..%s]: VERIFIED, %zu rows, VO %.1f KB\n",
                  t[1].c_str(), t[2].c_str(), t[3].c_str(), t[4].c_str(),
                  rows.size(), vo.SerializedSize() / 1024.0);
      for (const auto& r : rows) {
        std::printf("    %s\n", r.value.c_str());
      }
      return true;
    }
    if (cmd == "eq") {
      auto& client = *clients.at(t[1]);
      auto attrs = ParseDoubles(t[3]);
      core::Vo vo = sp->Equality(t[2], attrs, client.roles());
      std::optional<VerifiedRow> row;
      core::VerifyResult verdict =
          client.VerifyEquality(sp->GetSchema(t[2]), attrs, vo, &row);
      if (!verdict.ok()) {
        throw std::runtime_error("VERIFICATION FAILED: " + verdict.ToString());
      }
      std::printf("%s eq %s (%s): VERIFIED, %s\n", t[1].c_str(), t[2].c_str(),
                  t[3].c_str(),
                  row.has_value() ? row->value.c_str()
                                  : "inaccessible or absent");
      return true;
    }
    return false;
  }
};

// --- TCP service mode -------------------------------------------------------

// The served deployment: the same hospital data mart as the script demo,
// rebuilt identically by every process that knows the seed.
const std::uint64_t kDefaultSeed = 2018;

TableSchema DemoSchema() {
  return TableSchema("vitals",
                     {{"heart_rate", 30, 220}, {"temp", 34, 43}},
                     /*bits=*/4);
}

RoleSet DemoUniverse() { return {"Doctor", "Nurse", "Researcher"}; }

std::vector<core::Record> DemoRecords(const TableSchema& schema) {
  struct DemoRow {
    std::vector<double> attrs;
    const char* policy;
    const char* value;
  };
  const DemoRow rows[] = {
      {{72, 36.6}, "Doctor|Nurse", "ward-A/patient-1"},
      {{95, 38.2}, "Doctor", "ward-A/patient-2"},
      {{120, 39.5}, "(Doctor&Researcher)|Nurse", "icu/patient-3"},
      {{61, 36.1}, "Researcher", "cohort/anon-17"},
  };
  std::vector<core::Record> records;
  for (const auto& r : rows) {
    records.push_back(core::Record{schema.Discretize(r.attrs), r.value,
                                   core::Policy::Parse(r.policy)});
  }
  return records;
}

// Minimal --key=value parser; positional arguments pass through.
struct Flags {
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;

  static Flags Parse(int argc, char** argv, int from) {
    Flags f;
    for (int i = from; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        auto eq = a.find('=');
        std::string key = a.substr(2, eq == std::string::npos ? a.size() : eq - 2);
        std::string value = eq == std::string::npos ? std::string("1")
                                                    : a.substr(eq + 1);
        f.kv.emplace(std::move(key), std::move(value));
      } else {
        f.positional.push_back(a);
      }
    }
    return f;
  }

  std::uint64_t U64(const std::string& key, std::uint64_t def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : std::stoull(it->second);
  }
  std::string Str(const std::string& key, const std::string& def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
};

volatile std::sig_atomic_t g_interrupted = 0;
void HandleSigint(int) { g_interrupted = 1; }

int RunServe(const Flags& flags) {
  std::uint64_t seed = flags.U64("seed", kDefaultSeed);
  TableSchema schema = DemoSchema();
  std::printf("deriving keys and signing the demo ADS (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  core::DataOwner owner(DemoUniverse(), schema.domain(), seed);
  core::GridTree tree = owner.BuildAds(DemoRecords(schema));

  std::unique_ptr<core::SpStateStore> store;
  std::string state_dir = flags.Str("state-dir", "");
  if (!state_dir.empty()) {
    store = core::SpStateStore::Open(state_dir);
    if (store == nullptr) {
      std::fprintf(stderr, "cannot open state dir %s\n", state_dir.c_str());
      return 1;
    }
    core::RecoveryStats rs;
    tree = store->Recover(owner.keys(), std::move(tree), &rs);
    std::printf(
        "recovered from %s: snapshot %s (epoch %llu), WAL %llu record(s) "
        "(%llu applied, %llu idempotent, %llu rejected%s) -> epoch %llu\n",
        state_dir.c_str(), rs.snapshot_loaded ? "loaded" : "absent/invalid",
        static_cast<unsigned long long>(rs.snapshot_epoch),
        static_cast<unsigned long long>(rs.wal_records),
        static_cast<unsigned long long>(rs.wal_applied),
        static_cast<unsigned long long>(rs.wal_already_applied),
        static_cast<unsigned long long>(rs.wal_rejected),
        rs.wal_torn_tail ? ", torn tail truncated" : "",
        static_cast<unsigned long long>(rs.recovered_epoch));
  }
  core::ServiceProvider sp(owner.keys(), std::move(tree));

  net::SpServerOptions opts;
  opts.worker_threads = static_cast<int>(flags.U64("workers", 2));
  opts.max_queue = flags.U64("queue", 8);
  opts.state_store = store.get();
  net::SpServer server(&sp, opts);

  net::TcpListener listener(
      static_cast<std::uint16_t>(flags.U64("port", 4720)));
  if (!listener.ok()) {
    std::fprintf(stderr, "cannot bind 127.0.0.1 (try --port=0)\n");
    return 1;
  }
  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);
  std::printf("serving '%s' on 127.0.0.1:%u — Ctrl-C for graceful drain\n",
              schema.name().c_str(), listener.port());
  std::fflush(stdout);

  while (g_interrupted == 0) {
    auto conn = listener.Accept(/*timeout_ms=*/250);
    if (conn != nullptr && !server.AttachTransport(std::move(conn))) break;
  }
  listener.Close();
  std::printf("\ndraining...\n");
  server.Stop();
  net::ServerStats s = server.stats();
  std::printf("served %llu  expired %llu  failed %llu  shed %llu  "
              "refused %llu  malformed %llu\n",
              static_cast<unsigned long long>(s.served),
              static_cast<unsigned long long>(s.expired),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.refused),
              static_cast<unsigned long long>(s.malformed));
  return 0;
}

int RunQuery(const Flags& flags) {
  if (flags.positional.empty()) {
    std::fprintf(stderr, "query needs a subcommand: eq <vals> | "
                         "range <lo> <hi>\n");
    return 2;
  }
  std::uint64_t seed = flags.U64("seed", kDefaultSeed);
  TableSchema schema = DemoSchema();
  // Same seed → same master keys as the server; enrollment only needs the
  // (deterministic) master secret, not the server's cooperation.
  core::DataOwner owner(DemoUniverse(), schema.domain(), seed);
  auto roles_list = Split(flags.Str("roles", "Nurse"), ',');
  core::UserCredentials creds =
      owner.EnrollUser(RoleSet(roles_list.begin(), roles_list.end()));

  net::ClientOptions opts;
  opts.deadline_ms = static_cast<std::uint32_t>(flags.U64("deadline-ms", 5000));
  opts.max_attempts = static_cast<int>(flags.U64("retries", 4));
  opts.attempt_timeout_ms = opts.deadline_ms / 2 + 1;

  // Generic over ApqaClient / FailoverClient (identical query surface).
  auto execute = [&](auto& client) -> int {
    const std::string& op = flags.positional[0];
    net::ClientResult r;
    if (op == "eq" && flags.positional.size() == 2) {
      core::Record rec;
      bool accessible = false;
      r = client.Equality(schema.Discretize(ParseDoubles(flags.positional[1])),
                          &rec, &accessible);
      if (r.ok()) {
        std::printf("VERIFIED eq (%s): %s\n", flags.positional[1].c_str(),
                    accessible ? rec.value.c_str() : "inaccessible or absent");
      }
    } else if (op == "range" && flags.positional.size() == 3) {
      std::vector<core::Record> rows;
      r = client.Range(
          schema.DiscretizeRange(ParseDoubles(flags.positional[1]),
                                 ParseDoubles(flags.positional[2])),
          &rows);
      if (r.ok()) {
        std::printf("VERIFIED range [%s..%s]: %zu rows\n",
                    flags.positional[1].c_str(), flags.positional[2].c_str(),
                    rows.size());
        for (const auto& row : rows) std::printf("    %s\n", row.value.c_str());
      }
    } else {
      std::fprintf(stderr, "usage: query ... eq <v1,v2> | range <lo,..> "
                           "<hi,..>\n");
      return 2;
    }
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.ToString().c_str());
      return 1;
    }
    std::printf("(%d attempt(s), %u ms in backoff)\n", r.attempts,
                r.backoff_total_ms);
    return 0;
  };

  std::string endpoints = flags.Str("endpoints", "");
  if (!endpoints.empty()) {
    // Replicated deployment: each endpoint is `port` or `host:port`.
    std::vector<net::ReplicaEndpoint> eps;
    for (const auto& tok : Split(endpoints, ',')) {
      auto colon = tok.rfind(':');
      std::string host =
          colon == std::string::npos ? "127.0.0.1" : tok.substr(0, colon);
      std::uint16_t port = static_cast<std::uint16_t>(std::stoul(
          colon == std::string::npos ? tok : tok.substr(colon + 1)));
      eps.push_back(net::ReplicaEndpoint{
          tok, [host, port]() -> std::shared_ptr<net::Transport> {
            return net::SocketTransport::Connect(host, port,
                                                 /*timeout_ms=*/2000);
          }});
    }
    net::FailoverOptions fopts;
    fopts.client = opts;
    fopts.total_deadline_ms = opts.deadline_ms;
    net::FailoverClient client(owner.keys(), creds, std::move(eps), fopts);
    int rc = execute(client);
    for (std::size_t i = 0; i < client.endpoint_count(); ++i) {
      const net::EndpointStats& es = client.endpoint_stats(i);
      if (es.state == net::EndpointState::kQuarantined) {
        std::fprintf(stderr, "endpoint %zu QUARANTINED: %s\n", i,
                     es.quarantine_reason.c_str());
      }
    }
    return rc;
  }

  auto transport = net::SocketTransport::Connect(
      "127.0.0.1", static_cast<std::uint16_t>(flags.U64("port", 4720)),
      /*timeout_ms=*/2000);
  if (transport == nullptr) {
    std::fprintf(stderr, "cannot connect (is `apqa_cli serve` running?)\n");
    return 1;
  }
  net::ApqaClient client(owner.keys(), creds,
                         std::shared_ptr<net::Transport>(std::move(transport)),
                         opts);
  return execute(client);
}

int RunUpdate(const Flags& flags) {
  // Parse the op list: `upsert <attrs> <policy> <value>` or `delete <attrs>`,
  // repeated. All ops form one batch = one epoch advance.
  TableSchema schema = DemoSchema();
  std::vector<core::AdsUpdateOp> ops;
  const auto& p = flags.positional;
  for (std::size_t i = 0; i < p.size();) {
    if (p[i] == "upsert" && i + 3 < p.size()) {
      ops.push_back(core::AdsUpdateOp{
          core::AdsUpdateOp::Kind::kUpsert,
          core::Record{schema.Discretize(ParseDoubles(p[i + 1])), p[i + 3],
                       core::Policy::Parse(p[i + 2])}});
      i += 4;
    } else if (p[i] == "delete" && i + 1 < p.size()) {
      ops.push_back(core::AdsUpdateOp{
          core::AdsUpdateOp::Kind::kDelete,
          core::Record{schema.Discretize(ParseDoubles(p[i + 1])), "",
                       core::Policy()}});
      i += 2;
    } else {
      std::fprintf(stderr, "usage: update ... upsert <v1,v2,..> <policy> "
                           "<value> | delete <v1,v2,..>\n");
      return 2;
    }
  }
  if (ops.empty()) {
    std::fprintf(stderr, "update needs at least one op\n");
    return 2;
  }

  std::uint64_t seed = flags.U64("seed", kDefaultSeed);
  std::printf("rebuilding the epoch-0 demo ADS as the data owner "
              "(seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  core::DataOwner owner(DemoUniverse(), schema.domain(), seed);
  core::GridTree tree = owner.BuildAds(DemoRecords(schema));
  std::printf("re-signing %zu op(s), epoch %llu -> %llu...\n", ops.size(),
              static_cast<unsigned long long>(tree.epoch()),
              static_cast<unsigned long long>(tree.epoch() + 1));
  core::SignedAdsUpdate update = owner.ApplyUpdates(&tree, ops);

  auto transport = net::SocketTransport::Connect(
      "127.0.0.1", static_cast<std::uint16_t>(flags.U64("port", 4720)),
      /*timeout_ms=*/2000);
  if (transport == nullptr) {
    std::fprintf(stderr, "cannot connect (is `apqa_cli serve` running?)\n");
    return 1;
  }
  net::ClientOptions opts;
  opts.deadline_ms = static_cast<std::uint32_t>(flags.U64("deadline-ms", 5000));
  opts.max_attempts = static_cast<int>(flags.U64("retries", 4));
  opts.attempt_timeout_ms = opts.deadline_ms / 2 + 1;
  net::DoUpdateClient pusher(
      std::shared_ptr<net::Transport>(std::move(transport)), opts);

  net::UpdateResult r = pusher.Push(update);
  if (!r.ok()) {
    std::fprintf(stderr, "update failed: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("update acknowledged: %s\n", r.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "serve") {
    return RunServe(Flags::Parse(argc, argv, 2));
  }
  if (argc > 1 && std::string(argv[1]) == "query") {
    return RunQuery(Flags::Parse(argc, argv, 2));
  }
  if (argc > 1 && std::string(argv[1]) == "update") {
    return RunUpdate(Flags::Parse(argc, argv, 2));
  }
  Cli cli;
  if (argc > 1) {
    std::ifstream f(argv[1]);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    return cli.Run(f);
  }
  std::printf("(running built-in demo; pass a script file to customize)\n\n");
  std::istringstream demo(kDemoScript);
  return cli.Run(demo);
}
