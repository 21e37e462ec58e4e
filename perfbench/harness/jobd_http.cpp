// jobd-http: an open loop of Poisson arrivals to an in-process PhishJobD,
// wired as the phish-jobd daemon ships it: HttpServer + make_jobd_handler +
// JobService (default ServiceConfig) + LocalBackend with two threads.
//
// Two tenants: "batch" at low priority and "interactive" at high.  Mostly
// fib(15) jobs, one in twenty fib(22).  After each submit the client reads the
// job's status until it is done, so submissions (JSON parse, admission) run
// beside status reads (JSON render).  A run submits more jobs than the
// service's history_limit, so history eviction runs too.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/fib/fib.hpp"
#include "core/local_runner.hpp"
#include "jobsvc/http.hpp"
#include "jobsvc/jobd.hpp"
#include "jobsvc/local_backend.hpp"
#include "jobsvc/service.hpp"
#include "obs/clock.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// Offered load, jobs per second over all connections: a fifth of the
/// capacity measured with this client on a 4-core x86-64 VM (backlog
/// rejections start near 5000/s).  At 1500-2400/s, host scheduling stalls
/// of 50 ms and more overflowed the 64-job backlog in some runs.
constexpr double kRatePerSecond = 1000.0;
constexpr int kConnections = 2;
constexpr int kBackendThreads = 2;
constexpr int kSetupReps = 100;
constexpr std::uint64_t kPollGapNs = 100'000;
constexpr std::int64_t kSmallN = 15;
constexpr std::int64_t kLargeN = 22;
constexpr char kSpanHeader[] = "x-perfbench-span";

/// A job the generator will submit.
struct Arrival {
  std::uint64_t due_ns = 0;  // offset from the start of the timed window
  std::int64_t n = kSmallN;
  bool interactive = false;
};

/// The inputs of one connection, from the seed alone.
std::vector<Arrival> arrivals(std::uint64_t seed, int connection, double seconds) {
  const std::uint64_t stream = seed * 0x100000001b3ULL + static_cast<std::uint64_t>(connection);
  std::vector<Arrival> out;
  InputRng mix(stream ^ 0xa5a5a5a5ULL);
  for (std::uint64_t due : poisson_schedule(stream, kRatePerSecond / kConnections,
                                            static_cast<std::uint64_t>(seconds * 1e9))) {
    Arrival a;
    a.due_ns = due;
    a.n = mix.uniform() < 1.0 / 20.0 ? kLargeN : kSmallN;
    a.interactive = mix.uniform() < 0.25;
    out.push_back(a);
  }
  return out;
}

/// Raw text of a top-level scalar member of a flat JSON object.
std::optional<std::string> json_field(const std::string& body, const std::string& key) {
  const std::string pattern = "\"" + key + "\":";
  const std::size_t at = body.find(pattern);
  if (at == std::string::npos) return std::nullopt;
  std::size_t begin = at + pattern.size();
  std::size_t end = begin;
  if (body[begin] == '"') {
    ++begin;
    end = body.find('"', begin);
  } else {
    end = body.find_first_of(",}", begin);
  }
  if (end == std::string::npos) return std::nullopt;
  return body.substr(begin, end - begin);
}

std::uint64_t json_u64(const std::string& body, const std::string& key) {
  const auto v = json_field(body, key);
  return v ? std::strtoull(v->c_str(), nullptr, 10) : 0;
}

/// Blocking HTTP/1.1 keep-alive client on one loopback connection.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect");
    }
  }
  ~HttpClient() { ::close(fd_); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Send one request and read the response; returns the status code.
  /// `span` (when nonzero) travels in a header so the server-side wrapper
  /// can parent its span.  Throws on a broken connection.
  int request(const char* method, const std::string& target, const std::string& body,
              std::uint64_t span, std::string& response_body) {
    std::string req = std::string(method) + " " + target +
                      " HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: " +
                      std::to_string(body.size()) + "\r\n";
    if (span != 0) req += std::string(kSpanHeader) + ": " + std::to_string(span) + "\r\n";
    req += "\r\n" + body;
    for (std::size_t sent = 0; sent < req.size();) {
      const ssize_t k = ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
      if (k <= 0) throw std::runtime_error("send");
      sent += static_cast<std::size_t>(k);
    }
    std::size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) fill();
    const std::string head = buf_.substr(0, head_end);
    const std::size_t cl = head.find("content-length: ");
    const std::size_t length =
        cl == std::string::npos ? 0 : std::strtoull(head.c_str() + cl + 16, nullptr, 10);
    while (buf_.size() < head_end + 4 + length) fill();
    response_body = buf_.substr(head_end + 4, length);
    buf_.erase(0, head_end + 4 + length);
    return std::atoi(head.c_str() + 9);  // "HTTP/1.1 NNN"
  }

 private:
  void fill() {
    char chunk[4096];
    const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
    if (k <= 0) throw std::runtime_error("recv");
    buf_.append(chunk, static_cast<std::size_t>(k));
  }

  int fd_ = -1;
  std::string buf_;
};

/// The daemon's object graph, as phish-jobd builds it.  In a traced run the
/// handler is wrapped to time each call that carries the span header.
class Daemon {
 public:
  Daemon(const phish::TaskRegistry& registry, const phish::obs::Clock& clock,
         SpanLog* spans)
      : backend_(registry, kBackendThreads),
        service_(clock, backend_, phish::jobsvc::ServiceConfig{}),
        server_(phish::jobsvc::HttpServerConfig{}, handler(spans)) {
    backend_.bind(service_);
    server_.start();
  }
  ~Daemon() {
    server_.stop();
    backend_.drain();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return server_.port(); }
  phish::jobsvc::JobService& service() { return service_; }
  phish::jobsvc::HttpServer& server() { return server_; }
  /// Handler call durations, microseconds; read only after server().stop().
  const Samples& handler_us() const { return handler_us_; }

 private:
  phish::jobsvc::HttpHandler handler(SpanLog* spans) {
    phish::jobsvc::HttpHandler inner = phish::jobsvc::make_jobd_handler(service_);
    if (spans == nullptr) return inner;
    return [this, inner, spans](const phish::jobsvc::HttpRequest& req) {
      const auto it = req.headers.find(kSpanHeader);
      if (it == req.headers.end()) return inner(req);
      const std::uint64_t parent = std::strtoull(it->second.c_str(), nullptr, 10);
      const std::uint64_t t0 = now_ns();
      phish::jobsvc::HttpResponse resp;
      {
        ScopedSpan span(*spans, "jobd handler", parent);
        resp = inner(req);
      }
      handler_us_.add(static_cast<double>(now_ns() - t0) * 1e-3);  // server thread only
      return resp;
    };
  }

  phish::jobsvc::LocalBackend backend_;
  phish::jobsvc::JobService service_;
  Samples handler_us_;
  phish::jobsvc::HttpServer server_;
};

/// What one connection measured.
struct ClientLog {
  Samples turnaround_s, submit_ms, post_rtt_us, get_rtt_us, lag_ms;
  Samples service_s, queue_wait_ms, backend_run_ms, traced_turnaround_s, untraced_turnaround_s;
  std::vector<std::uint64_t> refused_due_ns;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;  // refused or broken requests
  std::vector<std::string> wrong;     // wrong answers
};

/// One connection of the open loop.  Submissions go out when due; between
/// them the connection reads the status of its outstanding jobs, oldest
/// first, until each is done.  A long job therefore delays no submission by
/// more than one in-flight request.
void drive_connection(std::uint16_t port, const std::vector<Arrival>& plan,
                      std::uint64_t start_ns, int connection, SpanLog& spans,
                      ClientLog& log) {
  struct Outstanding {
    const Arrival* arrival;
    std::uint64_t due_ns;
    std::string target;
    SpanLog* spans;
    std::uint64_t job_span;
    std::uint64_t job_key;
    std::uint64_t sent_ns;
    std::uint64_t polled_ns;
  };
  HttpClient client(port);
  std::string body;
  std::deque<Outstanding> outstanding;
  std::size_t next = 0;
  while (next < plan.size() || !outstanding.empty()) {
    const std::uint64_t due = next < plan.size() ? start_ns + plan[next].due_ns : 0;
    if (next < plan.size() && (outstanding.empty() || now_ns() >= due)) {
      const Arrival& a = plan[next];
      const std::uint64_t job_key = (static_cast<std::uint64_t>(connection) << 32) | next;
      SpanLog& sl = spans.enabled() && next % 2 == 1 ? spans : no_spans();
      ++next;
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      ++log.attempted;
      const std::string submit =
          std::string("{\"root_task\":\"fib.task\",\"args\":[") + std::to_string(a.n) +
          "],\"tenant\":\"" + (a.interactive ? "interactive" : "batch") +
          "\",\"priority\":\"" + (a.interactive ? "high" : "low") + "\"}";
      OpenLoopTiming post;
      post.due_ns = due;
      const std::uint64_t job_span = sl.open();
      int status;
      post.sent_ns = now_ns();
      {
        ScopedSpan span(sl, "http POST /v1/jobs", job_span, job_key);
        status = client.request("POST", "/v1/jobs", submit, span.id(), body);
      }
      post.done_ns = now_ns();
      log.lag_ms.add(static_cast<double>(post.lag_ns()) * 1e-6);
      log.post_rtt_us.add(static_cast<double>(post.done_ns - post.sent_ns) * 1e-3);
      log.submit_ms.add(static_cast<double>(post.latency_ns()) * 1e-6);
      if (status == 429 || status == 503) {
        log.failures.push_back("submit refused with HTTP " + std::to_string(status));
        log.refused_due_ns.push_back(due);
        continue;
      }
      if (status != 202) {
        log.wrong.push_back("submit answered HTTP " + std::to_string(status));
        continue;
      }
      outstanding.push_back({&a, due, "/v1/jobs/" + std::to_string(json_u64(body, "job_id")),
                             &sl, job_span, job_key, post.sent_ns, post.done_ns});
      continue;
    }

    // Re-read a job's status no sooner than kPollGapNs after the last read
    // (the turnaround comes from the server's finished_ns, so pacing the
    // reads does not change it), unless a submission falls due first.
    const std::uint64_t poll_at = outstanding.front().polled_ns + kPollGapNs;
    const std::uint64_t wake = next < plan.size() ? std::min(due, poll_at) : poll_at;
    if (now_ns() < wake) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(wake)));
      continue;
    }
    Outstanding job = std::move(outstanding.front());
    outstanding.pop_front();
    const std::uint64_t t0 = now_ns();
    int status;
    {
      ScopedSpan span(*job.spans, "http GET /v1/jobs/<id>", job.job_span, job.job_key);
      status = client.request("GET", job.target, "", span.id(), body);
    }
    log.get_rtt_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
    const std::string state = status == 200 ? json_field(body, "state").value_or("") : "";
    if (state == "pending" || state == "active") {
      job.polled_ns = now_ns();
      outstanding.push_back(std::move(job));
      continue;
    }
    const std::int64_t n = job.arrival->n;
    const auto result = json_field(body, "result");
    if (state != "done") {
      log.wrong.push_back(job.target + " ended as HTTP " + std::to_string(status) + " " + body);
    } else if (!result ||
               std::strtoll(result->c_str(), nullptr, 10) != phish::apps::fib_serial(n)) {
      log.wrong.push_back(job.target + " fib(" + std::to_string(n) + ") result " +
                          result.value_or("missing"));
    } else {
      const std::uint64_t submitted = json_u64(body, "submitted_ns");
      const std::uint64_t activated = json_u64(body, "activated_ns");
      const std::uint64_t finished = json_u64(body, "finished_ns");
      const double turnaround = static_cast<double>(finished - job.due_ns) * 1e-9;
      log.turnaround_s.add(turnaround);
      (job.spans->enabled() ? log.traced_turnaround_s : log.untraced_turnaround_s)
          .add(turnaround);
      log.queue_wait_ms.add(static_cast<double>(activated - submitted) * 1e-6);
      log.backend_run_ms.add(static_cast<double>(finished - activated) * 1e-6);
      log.service_s.add(static_cast<double>(finished - submitted) * 1e-9);
    }
    job.spans->close(job.job_span, 0, "job", job.sent_ns, now_ns(), job.job_key);
  }
}

void merge(Samples& into, const Samples& from) {
  for (double v : from.values()) into.add(v);
}

}  // namespace

Report run_jobd_http(const Options& options, SpanLog& spans) {
  using namespace phish;
  Report r;
  r.layer("apps");
  r.layer("core");
  r.layer("jobsvc");
  r.layer("trace");
  char line[160];
  std::snprintf(line, sizeof line,
                "open loop, Poisson %.0f jobs/s over %d connections, fib(%lld) "
                "and 1 in 20 fib(%lld), %d backend threads",
                kRatePerSecond, kConnections, static_cast<long long>(kSmallN),
                static_cast<long long>(kLargeN), kBackendThreads);
  r.note(line);

  TaskRegistry registry;
  const TaskId root = apps::register_fib(registry);
  static const obs::SteadyClock clock;

  Samples setup;
  const auto construct = [&](SpanLog* log) {
    const std::uint64_t t0 = now_ns();
    auto daemon = std::make_unique<Daemon>(registry, clock, log);
    setup.add(static_cast<double>(now_ns() - t0) * 1e-9);
    return daemon;
  };
  const auto owned = construct(spans.enabled() ? &spans : nullptr);
  Daemon& daemon = *owned;
  {
    // Untimed warm-up job, checked like the others.
    ClientLog warm;
    drive_connection(daemon.port(), {Arrival{}}, now_ns(), kConnections, no_spans(), warm);
    r.attempt();
    if (!warm.failures.empty()) r.fail(warm.failures.front());
    if (!warm.wrong.empty()) r.check(false, warm.wrong.front());
  }

  std::vector<std::vector<Arrival>> plans;
  for (int c = 0; c < kConnections; ++c) plans.push_back(arrivals(options.seed, c, options.seconds));
  std::vector<ClientLog> logs(kConnections);
  const std::uint64_t start = now_ns() + 10'000'000;  // 10 ms for threads to start
  // Serial reference for the common job, sampled through the timed window
  // so that it sees the same host as the jobs: 100 calls every 100 ms.
  Samples serial_s;
  {
    std::atomic<int> running{kConnections};
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        try {
          drive_connection(daemon.port(), plans[c], start, c, spans, logs[c]);
        } catch (const std::exception& e) {
          logs[c].failures.push_back(std::string("connection broken: ") + e.what());
        }
        --running;
      });
    }
    constexpr int kBatch = 100;
    const std::int64_t expected = apps::fib_serial(kSmallN);
    while (running.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kBatch; ++i) {
        r.check(apps::fib_serial(kSmallN) == expected, "fib_serial repeats its result");
      }
      serial_s.add(static_cast<double>(now_ns() - t0) * 1e-9 / kBatch);
    }
    for (std::thread& t : clients) t.join();
  }
  const std::uint64_t end = now_ns();
  daemon.server().stop();
  r.set("peak_rss_mb", "MiB", peak_rss_mb());
  // More constructions for a steady set-up median, after the RSS reading.
  for (int i = 1; i < kSetupReps; ++i) construct(nullptr);
  ClientLog all;
  for (const ClientLog& log : logs) {
    r.attempt(log.attempted);
    for (const std::string& f : log.failures) r.fail(f);
    for (const std::string& w : log.wrong) r.check(false, w);
    // A refused job never finishes within the run: it misses any limit.
    for (std::uint64_t due : log.refused_due_ns) {
      all.turnaround_s.add(static_cast<double>(end - due) * 1e-9);
    }
    merge(all.turnaround_s, log.turnaround_s);
    merge(all.submit_ms, log.submit_ms);
    merge(all.post_rtt_us, log.post_rtt_us);
    merge(all.get_rtt_us, log.get_rtt_us);
    merge(all.lag_ms, log.lag_ms);
    merge(all.queue_wait_ms, log.queue_wait_ms);
    merge(all.backend_run_ms, log.backend_run_ms);
    merge(all.service_s, log.service_s);
    merge(all.traced_turnaround_s, log.traced_turnaround_s);
    merge(all.untraced_turnaround_s, log.untraced_turnaround_s);
  }

  const auto c = daemon.service().counters();
  r.check(c.accepted == c.completed + c.cancelled,
          "job conservation: accepted " + std::to_string(c.accepted) + " != completed " +
              std::to_string(c.completed) + " + cancelled " + std::to_string(c.cancelled));
  r.check(daemon.server().stats().bad_requests == 0, "HTTP bad requests");

  // solve_s is the service's time to result, submitted_ns to finished_ns.
  // The client's view adds the HTTP round trip and the generator's lag, and
  // its median drifted with the host by IQR/median 0.29 over ten runs on a
  // 4-core VM; it is reported per layer as jobsvc.turnaround_*.
  r.median("solve_s", "s", all.service_s);
  const auto serial = serial_s.median();
  if (const auto t = all.service_s.median(); t && serial) {
    r.set("speedup", "x", *serial / *t, all.service_s.count());
  }
  r.percentile("jobsvc.turnaround_p50_ms", "ms", all.turnaround_s, 0.5, 1e3);
  r.percentile("jobsvc.turnaround_p99_ms", "ms", all.turnaround_s, 0.99, 1e3);
  r.median("setup_s", "s", setup);
  r.percentile("jobsvc.submit_p99_ms", "ms", all.submit_ms, 0.99);
  r.percentile("jobsvc.http.post_rtt_us_p99", "us", all.post_rtt_us, 0.99);
  r.percentile("jobsvc.http.get_rtt_us_p99", "us", all.get_rtt_us, 0.99);
  r.percentile("jobsvc.service.queue_wait_ms_p99", "ms", all.queue_wait_ms, 0.99);
  r.median("jobsvc.backend.run_ms_p50", "ms", all.backend_run_ms);
  r.percentile("jobsvc.generator_lag_ms_p99", "ms", all.lag_ms, 0.99);
  r.set("jobsvc.rejected", "count",
        static_cast<double>(c.rejected_bad_request + c.rejected_rate + c.rejected_quota +
                            c.rejected_backlog + c.rejected_degraded),
        c.submitted);
  std::snprintf(line, sizeof line,
                "rejected by reason: bad_request %llu, rate %llu, quota %llu, "
                "backlog %llu, degraded %llu",
                static_cast<unsigned long long>(c.rejected_bad_request),
                static_cast<unsigned long long>(c.rejected_rate),
                static_cast<unsigned long long>(c.rejected_quota),
                static_cast<unsigned long long>(c.rejected_backlog),
                static_cast<unsigned long long>(c.rejected_degraded));
  r.note(line);
  r.set("jobsvc.history_evicted", "count", static_cast<double>(c.history_evicted));

  if (options.trace && serial) {
    // The net layer's probe rides on this, the benchmark's real-socket
    // workload (see README.md: udp-pfold is not in BENCHMARK.json).
    r.layer("net");
    const Samples rtt = udp_echo_rtt_us(r, spans);
    r.median("net.rpc_rtt_us_p50", "us", rtt);
    r.percentile("net.rpc_rtt_us_p99", "us", rtt, 0.99);

    r.percentile("jobsvc.handler_us_p99", "us", daemon.handler_us(), 0.99);
    const std::vector<Span> all_spans = spans.snapshot();
    const std::vector<std::uint64_t> self = self_times(all_spans);
    Samples post_self_us;
    for (std::size_t i = 0; i < all_spans.size(); ++i) {
      if (all_spans[i].name == "http POST /v1/jobs") {
        post_self_us.add(static_cast<double>(self[i]) * 1e-3);
      }
    }
    r.percentile("jobsvc.http.post_self_us_p99", "us", post_self_us, 0.99);

    LocalRunner local(registry);
    const std::vector<Value> input{Value(kSmallN)};
    const Samples local_s = time_reps(201, [&] {
      r.check(local.run(root, input).as_int() == apps::fib_serial(kSmallN),
              "LocalRunner fib result");
    });
    report_core(r, local_s, *serial,
                static_cast<double>(local.stats().tasks_executed) / 201.0,
                static_cast<double>(local.stats().max_tasks_in_use));
    report_trace_ratio(r, all.traced_turnaround_s, all.untraced_turnaround_s);
  }
  return r;
}

}  // namespace perfbench
