// serve_live — the query daemon with reads and writes at once. A live
// QueryServer (default config, 4 workers) over the city's 28 ingested
// days answers an open-loop load while a writer thread keeps feeding new
// days and republishing the model. Exercises server/ and the ingestor's
// shard locks; the read mix never touches the classifier, so model-path
// changes must leave the read latencies unchanged.
//
// Load: one generator thread, 4 keep-alive connections. Connections 0-1
// carry the read mix (/window 95 %, /stats 5 %), connections 2-3 the model
// mix (/class 60 %, /forecast 20 %, POST /classify 20 %), so a 0.75 ms
// /class never queues a 4 µs /window behind it. Arrivals are Poisson,
// fixed by the seed, 80 % read / 20 % model; every request is timed from
// when it was due, not from when it was sent.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "city.h"
#include "common/json.h"
#include "common/rng.h"
#include "layers.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/http.h"
#include "server/query_service.h"
#include "server/server.h"
#include "stream/ingestor.h"
#include "workloads.h"

namespace perfbench {

using namespace cellscope;
using namespace cellscope::server;

namespace {

/// Offered rates of the ladder, req/s; latencies are reported at the
/// nominal step.
constexpr std::array<double, 5> kLadder = {1000, 2000, 4000, 8000, 16000};
constexpr std::size_t kNominalStep = 1;
/// Share of the run each step gets: the nominal step 60 %, the others
/// 10 % each.
constexpr double kNominalShare = 0.60;
constexpr double kOtherShare = 0.10;
constexpr double kReadShare = 0.8;
/// A step passes when both lanes' p99 stay within this.
constexpr double kLatencyLimitUs = 5000.0;
/// A request unanswered this long after it was due has failed.
constexpr double kTimeoutUs = 1e6;
/// A step is invalid (the generator, not the server, fell behind) when
/// the generator's own p99 lateness exceeds this.
constexpr double kGeneratorLateLimitUs = 2000.0;
constexpr std::size_t kConnections = 4;

/// Writer: cellscoped's ingest loop at its defaults (examples/cellscoped.cpp
/// --records, --batch, --pause-ms): rounds of 200,000 records fed in
/// offer_batch + drain batches of 8,192, publish_model after every round,
/// a 500 ms pause between rounds.
constexpr std::size_t kRoundRecords = 200000;
constexpr std::size_t kFeedBatch = 8192;
constexpr auto kRoundPause = std::chrono::milliseconds(500);

/// Towers whose /class answer is compared with classify(window_copy)
/// after the run.
constexpr std::size_t kCheckTowers = 64;
constexpr std::size_t kClassifyBodies = 16;

enum class Kind { kWindow, kStats, kClass, kForecast, kClassify };
constexpr std::size_t kKinds = 5;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kWindow: return "window";
    case Kind::kStats: return "stats";
    case Kind::kClass: return "class";
    case Kind::kForecast: return "forecast";
    case Kind::kClassify: return "classify";
  }
  return "?";
}

bool is_read(Kind kind) { return kind == Kind::kWindow || kind == Kind::kStats; }

struct Arrival {
  double due_us = 0.0;  ///< offset from the step start
  std::size_t conn = 0;
  Kind kind = Kind::kWindow;
  std::uint32_t tower = 0;
  std::size_t body = 0;  ///< POST /classify body index
};

/// The step's arrivals, fixed by the seed: Poisson at `rate`, each
/// arrival a read (80 %) or model (20 %) request on its lane's next
/// connection, towers uniform.
std::vector<Arrival> make_schedule(std::uint64_t seed, std::size_t step,
                                   double rate, double seconds,
                                   std::size_t n_towers) {
  Rng rng(seed * 1000003ULL + step);
  std::vector<Arrival> out;
  std::array<std::size_t, 2> next_conn{0, 0};
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e6;
    if (t >= seconds * 1e6) break;
    Arrival a;
    a.due_us = t;
    const bool read = rng.uniform() < kReadShare;
    const double u = rng.uniform();
    if (read) {
      a.kind = u < 0.95 ? Kind::kWindow : Kind::kStats;
      a.conn = next_conn[0]++ % 2;
    } else {
      a.kind = u < 0.6 ? Kind::kClass
                       : (u < 0.8 ? Kind::kForecast : Kind::kClassify);
      a.conn = 2 + next_conn[1]++ % 2;
    }
    a.tower = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_towers) - 1));
    a.body = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kClassifyBodies) - 1));
    out.push_back(a);
  }
  return out;
}

std::string request_text(const Arrival& a,
                         const std::vector<std::string>& bodies) {
  const std::string id = std::to_string(a.tower);
  switch (a.kind) {
    case Kind::kWindow:
      return "GET /towers/" + id + "/window HTTP/1.1\r\nHost: bench\r\n\r\n";
    case Kind::kStats:
      return "GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n";
    case Kind::kClass:
      return "GET /towers/" + id + "/class HTTP/1.1\r\nHost: bench\r\n\r\n";
    case Kind::kForecast:
      return "GET /towers/" + id +
             "/forecast?horizon=144 HTTP/1.1\r\nHost: bench\r\n\r\n";
    case Kind::kClassify: {
      const std::string& body = bodies[a.body];
      return "POST /classify HTTP/1.1\r\nHost: bench\r\n"
             "Content-Type: application/json\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
    }
  }
  return {};
}

/// Folded weeks of a few towers as POST /classify bodies.
std::vector<std::string> classify_bodies(const StreamIngestor& ingestor,
                                         std::uint64_t seed,
                                         std::size_t n_towers) {
  Rng rng(seed ^ 0xC1A551F7ULL);
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i < kClassifyBodies; ++i) {
    const auto tower = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_towers) - 1));
    std::string body = "[";
    char buf[32];
    for (const double v : ingestor.window_copy(tower).folded_week()) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (body.size() > 1) body += ',';
      body += buf;
    }
    bodies.push_back(body + "]");
  }
  return bodies;
}

// ---------------------------------------------------------------------
// Open-loop generator

/// One non-blocking keep-alive connection with pipelined requests.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> inflight;  ///< arrival indices, in send order
  bool dead = false;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close_fd(); }

  void close_fd() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  void open(std::uint16_t port) {
    close_fd();
    out.clear();
    out_off = 0;
    in.clear();
    inflight.clear();
    dead = false;
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error("connect() to the server failed");
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
};

/// Parses one response from `in` at `off`. Returns the bytes it spans,
/// or 0 when it is not complete yet.
std::size_t parse_response(const std::string& in, std::size_t off,
                           int& status) {
  const auto head_end = in.find("\r\n\r\n", off);
  if (head_end == std::string::npos) return 0;
  if (in.compare(off, 9, "HTTP/1.1 ") != 0 &&
      in.compare(off, 9, "HTTP/1.0 ") != 0)
    throw std::runtime_error("malformed response status line");
  status = std::atoi(in.c_str() + off + 9);
  const auto cl = in.find("Content-Length: ", off);
  std::size_t length = 0;
  if (cl != std::string::npos && cl < head_end)
    length = std::strtoull(in.c_str() + cl + 16, nullptr, 10);
  const std::size_t total = head_end + 4 + length - off;
  return in.size() - off >= total ? total : 0;
}

struct StepResult {
  double rate = 0.0;
  std::size_t requests = 0;
  std::array<std::vector<double>, 2> latency_us;  ///< [read, model], ok only
  std::array<std::size_t, 2> failed{0, 0};
  std::vector<double> late_us;  ///< generator lateness per request
  std::size_t backlog = 0;      ///< unanswered at the end of the send window
  double late_p99_us = 0.0;
  bool valid = false;      ///< the generator kept its schedule
  bool sustained = false;  ///< backlog did not grow
  bool passed = false;

  double p(std::size_t lane, double q) const {
    return quantile(latency_us[lane], q);
  }
};

/// Runs one step of the ladder over `conns` and evaluates it.
StepResult run_step(std::array<Conn, kConnections>& conns,
                    const std::vector<Arrival>& arrivals,
                    const std::vector<std::string>& bodies, double rate,
                    double seconds) {
  StepResult r;
  r.rate = rate;
  r.requests = arrivals.size();
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto us_now = [&] {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  const double window_us = seconds * 1e6;
  std::size_t next = 0;
  std::size_t settled = 0;
  bool backlog_taken = false;
  const auto settle = [&](std::size_t index, bool ok, double latency) {
    const std::size_t lane = is_read(arrivals[index].kind) ? 0 : 1;
    if (ok && latency <= kTimeoutUs) {
      r.latency_us[lane].push_back(latency);
    } else {
      ++r.failed[lane];
    }
    ++settled;
  };

  std::array<pollfd, kConnections> pfds{};
  while (true) {
    double now = us_now();
    while (next < arrivals.size() && arrivals[next].due_us <= now) {
      const Arrival& a = arrivals[next];
      Conn& c = conns[a.conn];
      c.out += request_text(a, bodies);
      c.inflight.push_back(next);
      r.late_us.push_back(now - a.due_us);
      ++next;
    }
    if (!backlog_taken && now >= window_us) {
      r.backlog = next - settled;
      backlog_taken = true;
    }
    for (auto& c : conns) {
      while (!c.dead && c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          c.dead = true;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }

    for (std::size_t i = 0; i < kConnections; ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    // The generator spins (zero-timeout poll): a sleeping generator adds
    // the host's timer and wake-up latency to every request it times.
    const timespec no_wait{0, 0};
    ::ppoll(pfds.data(), kConnections, &no_wait, nullptr);

    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn& c = conns[i];
      if (c.dead || (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      char buf[65536];
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          c.dead = true;  // closed by the server: a short read
          break;
        }
      }
      const double done = us_now();
      std::size_t off = 0;
      int status = 0;
      while (!c.inflight.empty()) {
        const std::size_t len = parse_response(c.in, off, status);
        if (len == 0) break;
        off += len;
        const std::size_t index = c.inflight.front();
        c.inflight.pop_front();
        settle(index, status == 200, done - arrivals[index].due_us);
      }
      c.in.erase(0, off);
    }
    for (auto& c : conns) {
      if (!c.dead) continue;
      while (!c.inflight.empty()) {
        settle(c.inflight.front(), false, 0.0);
        c.inflight.pop_front();
      }
    }

    now = us_now();
    if (next == arrivals.size() && settled == arrivals.size()) break;
    if (now > window_us + kTimeoutUs) {
      for (auto& c : conns) {
        while (!c.inflight.empty()) {
          settle(c.inflight.front(), false, 0.0);
          c.inflight.pop_front();
        }
        c.dead = true;  // responses may still arrive: do not reuse
      }
      break;
    }
  }
  if (!backlog_taken) r.backlog = 0;

  r.late_p99_us = quantile(r.late_us, 0.99);
  r.valid = r.late_p99_us <= kGeneratorLateLimitUs;
  r.sustained =
      static_cast<double>(r.backlog) <= rate * kLatencyLimitUs * 1e-6 + 8.0;
  r.passed = r.valid && r.sustained && r.failed[0] + r.failed[1] == 0 &&
             r.p(0, 0.99) <= kLatencyLimitUs && r.p(1, 0.99) <= kLatencyLimitUs;
  return r;
}

// ---------------------------------------------------------------------
// Writer

/// Feeds (0-based) days 28 and on (each the bytes of day d % 28, so the
/// rings evict) in cellscoped's rounds: every batch of a round is offered
/// and drained, then the model is republished and the writer pauses. A
/// round's records are all due when the round starts, so a batch's
/// freshness runs from the round's start to its drain returning.
class Writer {
 public:
  Writer(StreamIngestor& ingestor, QueryService& service,
         const TrainedCity& city, ThreadPool& pool)
      : ingestor_(ingestor), service_(service), city_(city), pool_(pool) {}
  ~Writer() { join(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void start() { thread_ = std::thread([this] { loop(); }); }
  /// Stops and joins the thread; rethrows what it failed with.
  void stop() {
    join();
    if (error_) std::rethrow_exception(error_);
  }
  /// Ladder step the generator is in (-1 = between steps).
  void set_step(int step) { step_.store(step); }

  struct Batch {
    int step = -1;
    double fresh_ms = 0.0;  ///< round start -> drain returned
    double offer_drain_ms = 0.0;
    bool dropped = false;
  };
  const std::vector<Batch>& batches() const { return batches_; }
  const std::vector<double>& publish_us() const { return publish_us_; }

 private:
  void join() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  bool stopping() {
    std::lock_guard lock(mutex_);
    return stop_;
  }

  void loop() {
    try {
      std::vector<TrafficLog> day;
      std::size_t day_index = kDays;
      std::size_t cursor = 0;
      auto next_model = std::make_shared<const OnlineClassifier>(city_.model);
      while (!stopping()) {
        const auto round_start = Clock::now();
        for (std::size_t fed = 0; fed < kRoundRecords && !stopping();) {
          if (cursor == day.size()) {
            day.clear();
            day_records(city_, day_index++, day);
            cursor = 0;
          }
          const std::size_t n = std::min(
              {kFeedBatch, kRoundRecords - fed, day.size() - cursor});
          Batch batch;
          batch.step = step_.load();
          const auto start = Clock::now();
          std::size_t accepted = 0;
          {
            Span span("stream.offer_drain");
            accepted = ingestor_.offer_batch(
                std::span<const TrafficLog>(day.data() + cursor, n));
            ingestor_.drain(pool_);
          }
          const auto end = Clock::now();
          cursor += n;
          fed += n;
          batch.fresh_ms = seconds_between(round_start, end) * 1000.0;
          batch.offer_drain_ms = seconds_between(start, end) * 1000.0;
          batch.dropped = accepted != n;
          batches_.push_back(batch);
        }
        const auto p0 = Clock::now();
        {
          Span span("server.publish");
          service_.publish_model(std::move(next_model));
        }
        publish_us_.push_back(seconds_between(p0, Clock::now()) * 1e6);
        next_model = std::make_shared<const OnlineClassifier>(city_.model);
        std::unique_lock lock(mutex_);
        wake_.wait_for(lock, kRoundPause, [this] { return stop_; });
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  StreamIngestor& ingestor_;
  QueryService& service_;
  const TrainedCity& city_;
  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  ///< guarded by mutex_
  std::atomic<int> step_{-1};
  std::vector<Batch> batches_;
  std::vector<double> publish_us_;
  std::exception_ptr error_;
  std::thread thread_;  // last: joined before the members it uses die
};

/// Bulk-ingests the city's 28 days through the columnar apply path.
void ingest_city(const TrainedCity& city, StreamIngestor& ingestor) {
  std::vector<TrafficLog> logs;
  DecodedColumns cols;
  for (std::size_t day = 0; day < kDays; ++day) {
    logs.clear();
    day_records(city, day, logs);
    cols.clear();
    for (const auto& log : logs) {
      cols.tower.push_back(log.tower_id);
      cols.start.push_back(log.start_minute);
      cols.end.push_back(log.end_minute);
      cols.bytes.push_back(log.bytes);
    }
    ingestor.ingest_columns(cols);
  }
}

std::uint64_t shed_count() {
  const auto& m = ServerMetrics::instance();
  return m.shed_503->value() + m.shed_429->value();
}

std::uint64_t error_count() {
  const auto& m = ServerMetrics::instance();
  return m.errors_500->value() + m.bad_requests->value();
}

/// After the run, with writes stopped: /class over HTTP must equal
/// classify(window_copy) for sampled towers. Returns the mismatches and
/// times each window_copy.
std::size_t check_class_answers(std::uint16_t port,
                                const StreamIngestor& ingestor,
                                const OnlineClassifier& model,
                                std::uint64_t seed, std::size_t n_towers,
                                std::vector<double>& window_copy_us,
                                Result& result) {
  BlockingHttpClient client(port);
  Rng rng(seed ^ 0xC4EC4ULL);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kCheckTowers; ++i) {
    const auto tower = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_towers) - 1));
    const ClientResponse response =
        client.get("/towers/" + std::to_string(tower) + "/class");
    const auto t0 = Clock::now();
    const TowerWindow window = ingestor.window_copy(tower);
    window_copy_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    const Classification want = model.classify(window);
    bool same = response.status == 200;
    if (same) {
      const JsonValue doc = JsonValue::parse(response.body);
      const JsonValue& got = doc.at("classification");
      same = got.at("cluster").as_number() ==
                 static_cast<double>(want.cluster) &&
             got.at("region").as_string() == region_name(want.region) &&
             got.at("distance").as_number() == want.distance &&
             got.at("confidence").as_number() == want.confidence &&
             got.at("cold_start").as_bool() == want.cold_start;
    }
    if (!same) {
      ++mismatches;
      result.check(false, "/towers/" + std::to_string(tower) +
                              "/class differs from classify(window_copy)");
    }
  }
  return mismatches;
}

/// Wall time and failed requests of one in-process replay of a mix.
struct MixTimes {
  double total_s = 0.0;
  std::size_t failures = 0;
};

/// Replays requests through parse_http_request -> dispatch ->
/// serialize_response on this thread, each phase under its span when
/// tracing is on.
MixTimes replay_mix(const QueryService& service,
                    const std::vector<Arrival>& arrivals,
                    const std::vector<std::string>& raw) {
  MixTimes out;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    Span request("server.request", i + 1);
    HttpRequest parsed;
    ParseResult parse;
    {
      Span span("server.parse", i + 1);
      parse = parse_http_request(raw[i], parsed);
    }
    HttpResponse response;
    {
      Span span(std::string("server.dispatch.") + kind_name(arrivals[i].kind),
                i + 1);
      response = service.dispatch(parsed);
    }
    std::string frame;
    {
      Span span("server.serialize", i + 1);
      frame = serialize_response(response, parsed.keep_alive);
    }
    if (parse.status != ParseStatus::kOk || response.status != 200 ||
        frame.empty())
      ++out.failures;
  }
  out.total_s = seconds_between(t0, Clock::now());
  return out;
}

/// Restricts the calling thread (and the threads it creates later) to
/// CPUs [first, last]; a no-op on hosts with fewer than two CPUs.
void pin_to_cpus(int first, int last) {
  if (std::thread::hardware_concurrency() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

void set_tail(Result& result, const std::string& name,
              const std::vector<double>& values, const std::string& unit) {
  const Tail tail = supported_tail(values);
  result.set(name, tail.value, unit);
  result.info[name + ".percentile"] = std::to_string(tail.percentile);
  result.info[name + ".samples"] = std::to_string(values.size());
}

}  // namespace

Result run_serve_live(const Options& options) {
  Result result;
  // The load generator gets the last CPU to itself; the daemon, the
  // writer and the pools share the others.
  const int n_cpus = static_cast<int>(std::thread::hardware_concurrency());
  pin_to_cpus(0, n_cpus - 2);
  ThreadPool pool(configured_thread_count());

  // Set-up: train (the process's first batch pass), bulk-ingest the 28
  // days, publish the model, start the daemon.
  const TrainedCity city = train_city(options.seed);
  const std::size_t n_towers = city.tower_ids.size();
  StreamIngestor ingestor{StreamConfig{}};
  ingest_city(city, ingestor);
  QueryService service(ingestor, &pool);
  const auto model = std::make_shared<const OnlineClassifier>(city.model);
  service.publish_model(model);
  QueryServer server(service, ServerConfig{});
  server.start();
  result.set("setup_s", seconds_between(process_start(), Clock::now()), "s");
  if (options.setup_only) return result;

  LayerPasses layers;
  if (options.trace) {
    traced_training_pass(city, pool, layers, result);
  }
  const std::vector<std::string> bodies =
      classify_bodies(ingestor, options.seed, n_towers);

  const ThreadPoolStats pool_before = pool.stats();
  const IngestStats ingest_before = ingestor.stats();
  const std::uint64_t shed_before = shed_count();
  const std::uint64_t errors_before = error_count();
  Writer writer(ingestor, service, city, pool);
  writer.start();

  // The ladder, ascending, stopping after the first step that fails. The
  // traced run measures only the nominal step, for the transport split.
  std::vector<StepResult> steps;
  std::vector<Arrival> nominal_arrivals;
  {
    pin_to_cpus(n_cpus - 1, n_cpus - 1);
    std::array<Conn, kConnections> conns;
    const std::size_t last = options.trace ? kNominalStep : kLadder.size() - 1;
    for (std::size_t s = options.trace ? kNominalStep : 0; s <= last; ++s) {
      const double share = s == kNominalStep ? kNominalShare : kOtherShare;
      const double seconds = options.seconds * share;
      const auto arrivals =
          make_schedule(options.seed, s, kLadder[s], seconds, n_towers);
      for (auto& c : conns)
        if (c.fd < 0 || c.dead) c.open(server.port());
      writer.set_step(static_cast<int>(s));
      steps.push_back(run_step(conns, arrivals, bodies, kLadder[s], seconds));
      writer.set_step(-1);
      if (s == kNominalStep) nominal_arrivals = arrivals;
      if (!steps.back().passed && s >= kNominalStep) break;
    }
  }

  // The traced run replays the nominal step's requests in process, once
  // untraced and once traced, while the writer keeps writing.
  MixTimes untraced_mix;
  MixTimes traced_mix;
  if (options.trace) {
    std::vector<std::string> raw;
    raw.reserve(nominal_arrivals.size());
    for (const auto& a : nominal_arrivals) raw.push_back(request_text(a, bodies));
    untraced_mix = replay_mix(service, nominal_arrivals, raw);
    tracer().set_enabled(true);
    traced_mix = replay_mix(service, nominal_arrivals, raw);
    tracer().set_enabled(false);
  }
  writer.stop();

  std::vector<double> window_copy_us;
  const std::size_t mismatches = check_class_answers(
      server.port(), ingestor, *model, options.seed, n_towers, window_copy_us,
      result);
  server.stop();

  // Output checks: every request of the nominal step answered 200 in
  // time, every feed batch accepted, every sampled /class consistent.
  const StepResult* nominal = nullptr;
  for (const auto& s : steps)
    if (s.rate == kLadder[kNominalStep]) nominal = &s;
  if (nominal == nullptr) throw std::runtime_error("nominal step not run");
  const std::size_t nominal_failed = nominal->failed[0] + nominal->failed[1];
  std::size_t feed_batches = 0;
  std::size_t feed_dropped = 0;
  std::vector<double> fresh_ms;
  std::vector<double> offer_drain_ms;
  for (const auto& batch : writer.batches()) {
    offer_drain_ms.push_back(batch.offer_drain_ms);
    if (batch.step != static_cast<int>(kNominalStep)) continue;
    ++feed_batches;
    feed_dropped += batch.dropped ? 1 : 0;
    fresh_ms.push_back(batch.fresh_ms);
  }
  // += keeps what the traced training pass already counted.
  result.attempted += nominal->requests + feed_batches + kCheckTowers +
                      (options.trace ? nominal_arrivals.size() : 0);
  result.failed += nominal_failed + feed_dropped + mismatches +
                   traced_mix.failures;
  result.check(nominal_failed == 0,
               std::to_string(nominal_failed) +
                   " requests failed at the nominal step");
  result.check(feed_dropped == 0, "the ingestor dropped feed records");
  result.check(traced_mix.failures == 0,
               "in-process replay of the request mix failed");

  // End-to-end figures at the nominal step.
  result.set("read_p50_us", nominal->p(0, 0.5), "us");
  set_tail(result, "read_p99_us", nominal->latency_us[0], "us");
  result.set("model_p50_us", nominal->p(1, 0.5), "us");
  set_tail(result, "model_p99_us", nominal->latency_us[1], "us");
  result.set("feed_fresh_p50_ms", median(fresh_ms), "ms");
  set_tail(result, "feed_fresh_p99_ms", fresh_ms, "ms");
  double max_rate = 0.0;
  std::string ladder;
  for (const auto& s : steps) {
    if (s.passed) max_rate = s.rate;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s%.0f req/s: %zu sent, %zu failed, read p99 %.0f us, "
                  "model p99 %.0f us, gen late p99 %.0f us, backlog %zu, %s",
                  ladder.empty() ? "" : "; ", s.rate, s.requests,
                  s.failed[0] + s.failed[1], s.p(0, 0.99), s.p(1, 0.99),
                  s.late_p99_us, s.backlog,
                  !s.valid ? "invalid (generator behind)"
                           : (s.passed ? "pass" : "fail"));
    ladder += buf;
  }
  result.info["ladder"] = ladder;
  result.info["nominal_step_valid"] = nominal->valid ? "true" : "false";
  if (!options.trace) result.set("max_rate_rps", max_rate, "req/s");

  // Per-layer figures.
  if (options.trace) {
    layers.add_pool_delta(pool_before, pool.stats());
    const IngestStats ingest_after = ingestor.stats();
    layers.add_counts(
        {{"stream.records_applied",
          static_cast<double>(ingest_after.accepted - ingest_before.accepted)},
         {"stream.late",
          static_cast<double>(ingest_after.late - ingest_before.late)},
         {"stream.stale",
          static_cast<double>(ingest_after.stale - ingest_before.stale)}});
    layers.report(result);
    result.set("gen.late_p99_us", nominal->late_p99_us, "us");
    result.set("gen.backlog", static_cast<double>(nominal->backlog), "count");
    result.set("server.shed", static_cast<double>(shed_count() - shed_before),
               "count");
    result.set("server.errors",
               static_cast<double>(error_count() - errors_before), "count");
    result.set("stream.offer_drain_ms", median(offer_drain_ms), "ms");
    result.set("stream.window_copy_us", median(window_copy_us), "us");
    result.set("server.publish_us", median(writer.publish_us()), "us");

    // Per-request phase self times from the spans of the traced replay.
    const auto spans = tracer().spans();
    const auto self = tracer().self_times_us();
    std::map<std::string, std::vector<double>> by_name;
    std::vector<double> phases_us(nominal_arrivals.size() + 1, 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].request == 0 || spans[i].name == "server.request") continue;
      by_name[spans[i].name].push_back(self[i]);
      phases_us[spans[i].request] += self[i];
    }
    result.set("server.parse_us", median(by_name["server.parse"]), "us");
    result.set("server.serialize_us", median(by_name["server.serialize"]),
               "us");
    for (std::size_t k = 0; k < kKinds; ++k) {
      const std::string name = kind_name(static_cast<Kind>(k));
      result.set("server.dispatch_us." + name,
                 median(by_name["server.dispatch." + name]), "us");
    }
    std::array<std::vector<double>, 2> lane_phases;
    for (std::size_t i = 0; i < nominal_arrivals.size(); ++i)
      lane_phases[is_read(nominal_arrivals[i].kind) ? 0 : 1].push_back(
          phases_us[i + 1]);
    result.set("server.transport_us.read",
               nominal->p(0, 0.5) - median(lane_phases[0]), "us");
    result.set("server.transport_us.model",
               nominal->p(1, 0.5) - median(lane_phases[1]), "us");
    report_coverage(result, pass_coverage("server.request"));
    result.set("trace.overhead", traced_mix.total_s / untraced_mix.total_s,
               "ratio");
    write_chrome_trace(result, options, "serve_live");
  }
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
