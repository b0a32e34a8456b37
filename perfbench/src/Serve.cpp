//===- perfbench/src/Serve.cpp - The serve workload -----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-loop load generator (one thread, a few connections,
/// length-prefix framing) against a child `perc --listen` process that
/// serves perfbench/serve.perc. The seed draws Poisson arrivals and, per
/// request, the checked entry, a heavy-tailed size, the engine and the
/// tenant. A response carries no result value, so every request sends
/// the independent reference as `want` and the program traps when its
/// result differs; a seeded share carries a wrong `want` on purpose and
/// must come back as a runtime-error trap. Latency runs from the time a
/// request was due to the time its response arrived.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/JsonWriter.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sstream>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace perceus;

namespace {

//===--- Fixed settings (README.md explains each) -------------------------===//

/// Server threads: one event loop plus Shards x ServeWorkers workers;
/// with the client's one thread that is four, the host's nproc.
constexpr unsigned Shards = 1;
constexpr unsigned ServeWorkers = 2;
constexpr unsigned QueueCap = 1024;
constexpr unsigned Connections = 4;
/// The server's capacity with these settings: the requests per second it
/// executes when offered far more than it can take (30000 req/s offered;
/// measured on a 4-vCPU Xeon VM, GCC 12, RelWithDebInfo). The fixed rates
/// below are derived from it once and stay fixed, so a faster server gets
/// the same offered load as a slower one.
constexpr double MeasuredCapacity = 9500;
/// The two fixed offered rates, in requests per second: about 25% and 60%
/// of capacity, so `base` runs almost without a queue and `high` builds
/// one. Not 70%: the capacity itself moves by a fifth or more with the
/// load on the host's shared cores, and at 70% such a dip saturates the
/// server, after which p99 measures the dip (hundreds of milliseconds).
constexpr double BaseRate = 2400;
constexpr double HighRate = 5700;
/// The top of the `max_rps` search: four times the measured capacity, so
/// a server up to four times faster still finds its limit inside it.
constexpr double MaxSearchRate = 4 * MeasuredCapacity;
/// The latency limit `max_rps` holds p99 to. Well above the base rate's
/// p99 (a few milliseconds), so the step that fails is the one where the
/// queue starts to grow, near capacity, not one that caught a stall of
/// the host.
constexpr double LatencyLimitMs = 50;
/// Share of requests that carry a wrong `want` (negative controls).
constexpr double NegativeShare = 0.02;

struct EntryInfo {
  const char *Program; ///< the Figure-9 program it checks
  const char *Entry;
};
const EntryInfo Entries[] = {
    {"rbtree", "check_rbtree"}, {"rbtree-ck", "check_rbtree_ck"},
    {"deriv", "check_deriv"},   {"nqueens", "check_nqueens"},
    {"cfold", "check_cfold"},
};
constexpr unsigned NumEntries = 5;

/// Interactive size of entry \p Kind for work factor \p W in [1, 16].
int64_t sizeOf(unsigned Kind, double W) {
  double L = std::log2(W);
  switch (Kind) {
  case 0:
    return int64_t(std::llround(20 * W));
  case 1:
    return int64_t(std::llround(16 * W));
  case 2:
    return 3 + int64_t(std::llround(L));
  case 3:
    return 4 + int64_t(L / 2);
  default:
    return 4 + int64_t(std::llround(L));
  }
}

int64_t referenceFor(unsigned Kind, int64_t N) {
  static std::map<std::pair<unsigned, int64_t>, int64_t> Cache;
  auto It = Cache.find({Kind, N});
  if (It != Cache.end())
    return It->second;
  return Cache[{Kind, N}] = fig9Reference(Entries[Kind].Program, N);
}

struct Request {
  double Due = 0; ///< absolute, seconds since the process epoch
  double Sent = 0, Recv = 0;
  unsigned Kind = 0;
  int64_t Size = 0;
  int64_t Want = 0;
  bool ExpectTrap = false;
  bool Vm = false;
  unsigned Tenant = 0;
  std::string Frame;
  // The response.
  bool Got = false;
  std::string Status;
  bool RunOk = false;
  std::string Trap;
  bool HeapEmpty = false;
  bool CacheHit = false;
  double QueueMs = 0, RunMs = 0;
  uint64_t Retained = 0;
  size_t Bytes = 0; ///< request plus response frame bytes
};

std::string frameFor(const Request &R) {
  std::string Json = std::string("{\"entry\":\"") + Entries[R.Kind].Entry +
                     "\",\"args\":[" + std::to_string(R.Size) + "," +
                     std::to_string(R.Want) + "],\"engine\":\"" +
                     (R.Vm ? "vm" : "cek") + "\",\"tenant\":\"tenant-" +
                     std::to_string(R.Tenant + 1) + "\"}";
  uint32_t Len = uint32_t(Json.size());
  std::string F(4, '\0');
  F[0] = char(Len >> 24);
  F[1] = char(Len >> 16);
  F[2] = char(Len >> 8);
  F[3] = char(Len);
  return F + Json;
}

/// Draws one request: entry, heavy-tailed size, engine, tenant, and
/// whether it is a negative control.
Request drawRequest(Rng &R, unsigned Tenants) {
  Request Q;
  double U = R.uniform();
  Q.Kind = U < 1.0 / 3 ? 0 : U < 2.0 / 3 ? 1 : 2 + unsigned(R.next() % 3);
  // Bounded Pareto (alpha 1.2) on [1, 16]: most requests are small, a
  // few are an order of magnitude larger.
  const double Alpha = 1.2, Lo = 1, Hi = 16;
  double Ha = std::pow(Hi, Alpha), La = std::pow(Lo, Alpha);
  double W = std::pow(-(R.uniform() * (Ha - La) - Ha) / (Ha * La),
                      -1.0 / Alpha);
  W = std::min(Hi, std::max(Lo, W));
  Q.Size = sizeOf(Q.Kind, W);
  Q.Vm = R.uniform() < 0.5;
  Q.Tenant = unsigned(R.next() % Tenants);
  Q.Want = referenceFor(Q.Kind, Q.Size);
  Q.ExpectTrap = R.uniform() < NegativeShare;
  if (Q.ExpectTrap)
    Q.Want += 1 + int64_t(R.next() % 5);
  Q.Frame = frameFor(Q);
  return Q;
}

//===--- CPU placement ----------------------------------------------------===//

/// The client busy-polls, so it gets a CPU of its own (the last one the
/// process may use) and the server's threads the others, one CPU each in
/// turn. Left to itself, the scheduler may pack threads that wake each
/// other (the event loop and the workers) onto one CPU, where they share
/// it in time slices of milliseconds (all four server threads were seen
/// on one CPU), or put one beside the spinning client.
struct Placement {
  bool On = false;
  cpu_set_t Client, Server, Saved;
  std::vector<int> ServerCpus;

  Placement() {
    CPU_ZERO(&Client);
    CPU_ZERO(&Server);
    if (::sched_getaffinity(0, sizeof(Saved), &Saved) != 0 ||
        CPU_COUNT(&Saved) < 2)
      return;
    int Last = -1;
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved)) {
        if (Last >= 0) {
          CPU_SET(Last, &Server);
          ServerCpus.push_back(Last);
        }
        Last = C;
      }
    CPU_SET(Last, &Client);
    On = ::sched_setaffinity(0, sizeof(Client), &Client) == 0;
  }
  ~Placement() {
    if (On)
      ::sched_setaffinity(0, sizeof(Saved), &Saved);
  }

  /// Pins the threads of process \p Pid to the server CPUs in turn, in
  /// the order they were created. `perc --listen` creates the shard's
  /// workers, then the event loop; its main thread only waits for a
  /// signal, so the loop shares the first CPU with it.
  void pinServer(pid_t Pid) const {
    if (!On)
      return;
    std::vector<pid_t> Tids;
    std::string Dir = "/proc/" + std::to_string(Pid) + "/task";
    if (DIR *D = ::opendir(Dir.c_str())) {
      while (dirent *E = ::readdir(D))
        if (E->d_name[0] != '.')
          Tids.push_back(pid_t(std::atoi(E->d_name)));
      ::closedir(D);
    }
    std::sort(Tids.begin(), Tids.end());
    for (size_t I = 0; I != Tids.size(); ++I) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(ServerCpus[I % ServerCpus.size()], &One);
      ::sched_setaffinity(Tids[I], sizeof(One), &One);
    }
  }
};

//===--- The server child process -----------------------------------------===//

class ServerProcess {
public:
  ~ServerProcess() { stop(); }

  bool start(const RunOptions &O, const Placement &Cpus, std::string &Err) {
    int P[2];
    if (pipe2(P, O_CLOEXEC) != 0) {
      Err = "pipe failed";
      return false;
    }
    Args = {O.PercPath,
            O.ServeFile,
            "--listen=127.0.0.1:0",
            "--shards=" + std::to_string(Shards),
            "--serve-workers=" + std::to_string(ServeWorkers),
            "--queue-cap=" + std::to_string(QueueCap)};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid == 0) {
      // The server must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      if (Cpus.On)
        ::sched_setaffinity(0, sizeof(Cpus.Server), &Cpus.Server);
      int Null = ::open("/dev/null", O_WRONLY);
      ::dup2(Null, 1);
      ::dup2(P[1], 2);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    ::close(P[1]);
    ErrFd = P[0];
    if (Pid < 0) {
      Pid = -1;
      Err = "cannot fork: " + std::string(std::strerror(errno));
      return false;
    }
    // The banner carries the ephemeral port.
    double Deadline = now() + 20;
    while (now() < Deadline) {
      size_t At = Text.find("port=");
      if (At != std::string::npos && Text.find('\n', At) != std::string::npos) {
        Port = uint16_t(std::atoi(Text.c_str() + At + 5));
        // The banner comes after every thread has started.
        Cpus.pinServer(Pid);
        return Port != 0;
      }
      if (!readSome(Deadline))
        break;
    }
    Err = "no [listen] banner from perc: " + Text;
    return false;
  }

  /// SIGTERM, then collect the shutdown stats and reap the child.
  void stop() {
    if (Pid > 0) {
      ::kill(Pid, SIGTERM);
      double Deadline = now() + 20;
      while (readSome(Deadline)) {
      }
      int Status = 0;
      while (::waitpid(Pid, &Status, WNOHANG) == 0) {
        if (now() > Deadline) {
          ::kill(Pid, SIGKILL);
          ::waitpid(Pid, &Status, 0);
          break;
        }
        ::usleep(1000);
      }
      Pid = -1;
    }
    if (ErrFd >= 0) {
      ::close(ErrFd);
      ErrFd = -1;
    }
  }

  /// A counter from the `[service]` shutdown line, or -1.
  double stat(const char *Key) const {
    size_t Line = Text.find("[service]");
    if (Line == std::string::npos)
      return -1;
    size_t At = Text.find(std::string(" ") + Key + "=", Line);
    if (At == std::string::npos)
      return -1;
    return std::atof(Text.c_str() + At + std::strlen(Key) + 2);
  }

  uint16_t Port = 0;

private:
  /// Reads what stderr has; false at EOF or when \p Deadline passes.
  bool readSome(double Deadline) {
    pollfd P{ErrFd, POLLIN, 0};
    int Ms = int(std::max(0.0, (Deadline - now()) * 1e3));
    if (::poll(&P, 1, Ms) <= 0)
      return false;
    char Buf[4096];
    ssize_t N = ::read(ErrFd, Buf, sizeof(Buf));
    if (N <= 0)
      return false;
    Text.append(Buf, size_t(N));
    return true;
  }

  pid_t Pid = -1;
  int ErrFd = -1;
  std::string Text;
  std::vector<std::string> Args;
};

//===--- The open-loop client ---------------------------------------------===//

class Client {
public:
  ~Client() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }

  bool connect(uint16_t Port, unsigned N) {
    for (unsigned I = 0; I != N; ++I) {
      int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (Fd < 0)
        return false;
      sockaddr_in A{};
      A.sin_family = AF_INET;
      A.sin_port = htons(Port);
      inet_pton(AF_INET, "127.0.0.1", &A.sin_addr);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
        ::close(Fd);
        return false;
      }
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
      Conns.push_back({Fd, {}, {}, {}});
    }
    return true;
  }

  /// Sends every request of \p Reqs at its due time (they are sorted by
  /// it) and collects the responses, giving up \p Drain seconds after
  /// the last one was due.
  void run(std::vector<Request> &Reqs, double Drain) {
    Batch = &Reqs;
    size_t Next = 0, N = Reqs.size();
    Done = 0;
    double End = (N ? Reqs.back().Due : now()) + Drain;
    std::vector<pollfd> Fds(Conns.size());
    while (Done < N) {
      double T = now();
      while (Next < N && Reqs[Next].Due <= T) {
        Conn &C = Conns[Next % Conns.size()];
        C.Out += Reqs[Next].Frame;
        C.Pending.push_back(Next);
        Reqs[Next].Sent = now();
        flush(C);
        ++Next;
      }
      if (Next == N && T >= End)
        break;
      for (size_t I = 0; I != Conns.size(); ++I)
        Fds[I] = {Conns[I].Fd,
                  short(POLLIN | (Conns[I].Out.empty() ? 0 : POLLOUT)), 0};
      // Busy-poll: the client never sleeps, so its own wake-up latency
      // stays out of the measured latency and its sends stay on time.
      if (::poll(Fds.data(), Fds.size(), 0) <= 0)
        continue;
      for (size_t I = 0; I != Conns.size(); ++I) {
        if (Fds[I].revents & POLLOUT)
          flush(Conns[I]);
        if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
          receive(Conns[I]);
      }
    }
    Batch = nullptr;
  }

private:
  struct Conn {
    int Fd;
    std::string Out, In;
    std::vector<size_t> Pending; ///< request index per seq - 1
    size_t SeqBase = 0;          ///< seqs used by earlier batches
  };

  void flush(Conn &C) {
    while (!C.Out.empty()) {
      ssize_t N = ::send(C.Fd, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
      if (N <= 0)
        return;
      C.Out.erase(0, size_t(N));
    }
  }

  void receive(Conn &C) {
    char Buf[65536];
    for (;;) {
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      if (N <= 0)
        break;
      C.In.append(Buf, size_t(N));
    }
    double T = now();
    size_t Off = 0;
    while (C.In.size() - Off >= 4) {
      const unsigned char *P =
          reinterpret_cast<const unsigned char *>(C.In.data() + Off);
      size_t Len = (size_t(P[0]) << 24) | (size_t(P[1]) << 16) |
                   (size_t(P[2]) << 8) | size_t(P[3]);
      if (C.In.size() - Off - 4 < Len)
        break;
      handle(C, std::string_view(C.In).substr(Off + 4, Len), T, Len + 4);
      Off += 4 + Len;
    }
    C.In.erase(0, Off);
  }

  void handle(Conn &C, std::string_view Payload, double T, size_t Bytes) {
    std::optional<JsonValue> Doc = parseJson(Payload);
    const JsonValue *Svc =
        Doc ? Doc->find("service", JsonValue::Kind::Object) : nullptr;
    const JsonValue *Run =
        Doc ? Doc->find("run", JsonValue::Kind::Object) : nullptr;
    const JsonValue *Seq =
        Svc ? Svc->find("seq", JsonValue::Kind::Number) : nullptr;
    if (!Seq || !Run)
      return;
    size_t S = size_t(Seq->Num);
    if (S <= C.SeqBase || S - C.SeqBase > C.Pending.size())
      return;
    Request &R = (*Batch)[C.Pending[S - C.SeqBase - 1]];
    if (R.Got)
      return;
    R.Got = true;
    ++Done;
    R.Recv = T;
    R.Bytes = Bytes + R.Frame.size();
    auto str = [](const JsonValue *O, const char *K) {
      const JsonValue *V = O->find(K, JsonValue::Kind::String);
      return V ? V->Str : std::string();
    };
    auto number = [](const JsonValue *O, const char *K) {
      const JsonValue *V = O->find(K, JsonValue::Kind::Number);
      return V ? V->Num : 0.0;
    };
    auto flag = [](const JsonValue *O, const char *K) {
      const JsonValue *V = O->find(K, JsonValue::Kind::Bool);
      return V && V->B;
    };
    R.Status = str(Svc, "status");
    R.QueueMs = number(Svc, "queue_ms");
    R.RunMs = number(Svc, "run_ms");
    R.Retained = uint64_t(number(Svc, "retained_bytes"));
    R.HeapEmpty = flag(Svc, "heap_empty");
    R.CacheHit = flag(Svc, "cache_hit");
    R.RunOk = flag(Run, "ok");
    R.Trap = str(Run, "trap");
  }

public:
  /// Starts a new batch: the next batch's seqs follow this one's.
  void nextBatch() {
    for (Conn &C : Conns) {
      C.SeqBase += C.Pending.size();
      C.Pending.clear();
    }
  }

private:
  std::vector<Conn> Conns;
  std::vector<Request> *Batch = nullptr;
  size_t Done = 0;
};

//===--- Phases -----------------------------------------------------------===//

/// A Poisson stream at \p Rate for \p Seconds, starting a little after
/// now.
std::vector<Request> schedule(Rng &R, double Rate, double Seconds,
                              unsigned Tenants) {
  std::vector<Request> Out;
  double Start = now() + 0.02, T = 0;
  for (;;) {
    T += R.exponential(1.0 / Rate);
    if (T >= Seconds)
      break;
    Request Q = drawRequest(R, Tenants);
    Q.Due = Start + T;
    Out.push_back(std::move(Q));
  }
  return Out;
}

struct PhaseStats {
  std::vector<double> Lat, Queue, Run, Overhead, Lag;
  uint64_t Sent = 0, Completed = 0, Rejected = 0, Missing = 0,
           WrongOutput = 0, Traps = 0, HeapDirty = 0, Executed = 0,
           CacheHits = 0, Bytes = 0, RetainedMax = 0;
  double Wall = 0;

  /// The p99 over every answered request of the phase.
  double p99() const { return quantile(Lat, 0.99); }
  /// Median latency of the last tenth of the phase (by due time): a
  /// growing backlog shows here.
  double tailP50() const {
    size_t From = Lat.size() - Lat.size() / 10;
    return median(std::vector<double>(Lat.begin() + From, Lat.end()));
  }

  /// Adds the requests of another block of the same phase.
  void add(const PhaseStats &O) {
    for (auto [To, From] :
         {std::pair{&Lat, &O.Lat}, {&Queue, &O.Queue}, {&Run, &O.Run},
          {&Overhead, &O.Overhead}, {&Lag, &O.Lag}})
      To->insert(To->end(), From->begin(), From->end());
    Sent += O.Sent;
    Completed += O.Completed;
    Rejected += O.Rejected;
    Missing += O.Missing;
    WrongOutput += O.WrongOutput;
    Traps += O.Traps;
    HeapDirty += O.HeapDirty;
    Executed += O.Executed;
    CacheHits += O.CacheHits;
    Bytes += O.Bytes;
    RetainedMax = std::max(RetainedMax, O.RetainedMax);
    Wall += O.Wall;
  }
};

/// Scores a finished batch. Every output mismatch is reported to \p Out
/// (when given); rejections and lost responses only when \p Admission
/// is set, since above the base rate they measure capacity, not
/// correctness.
PhaseStats score(const std::vector<Request> &Reqs, Outcomes *Out,
                 bool Admission = true) {
  PhaseStats S;
  S.Sent = Reqs.size();
  if (Reqs.empty())
    return S;
  double First = Reqs.front().Due, Last = First;
  for (size_t I = 0; I != Reqs.size(); ++I) {
    const Request &R = Reqs[I];
    std::string Tag = std::string(Entries[R.Kind].Entry) + "(" +
                      std::to_string(R.Size) + ", " + std::to_string(R.Want) +
                      ") on " + (R.Vm ? "vm" : "cek");
    auto fail = [&](uint64_t &Counter, const std::string &Why) {
      ++Counter;
      if (Out)
        Out->fail(Tag + ": " + Why);
    };
    auto miss = [&](uint64_t &Counter, const std::string &Why) {
      if (Admission)
        fail(Counter, Why);
      else
        ++Counter;
    };
    if (!R.Got) {
      miss(S.Missing, "no response");
      continue;
    }
    ++S.Completed;
    Last = std::max(Last, R.Recv);
    double Lat = (R.Recv - R.Due) * 1e3;
    S.Lat.push_back(Lat);
    S.Lag.push_back((R.Sent - R.Due) * 1e3);
    S.Bytes += R.Bytes;
    if (R.Status != "ok") {
      miss(S.Rejected, "rejected: " + R.Status);
      continue;
    }
    ++S.Executed;
    S.CacheHits += R.CacheHit;
    S.Queue.push_back(R.QueueMs);
    S.Run.push_back(R.RunMs);
    S.Overhead.push_back((R.Recv - R.Sent) * 1e3 - R.QueueMs - R.RunMs);
    S.RetainedMax = std::max(S.RetainedMax, R.Retained);
    bool Ok = true;
    if (R.ExpectTrap && !(!R.RunOk && R.Trap == "runtime-error")) {
      fail(S.WrongOutput, "a wrong want was accepted (trap '" + R.Trap + "')");
      Ok = false;
    } else if (!R.ExpectTrap && !(R.RunOk && R.Trap == "ok")) {
      fail(S.Traps, "unexpected trap '" + R.Trap + "'");
      Ok = false;
    }
    if (!R.HeapEmpty) {
      fail(S.HeapDirty, "heap not empty after the request");
      Ok = false;
    }
    if (Ok && Out)
      Out->pass();
  }
  S.Wall = Last - First;
  return S;
}

/// The request span, with the generator's lag and the server-reported
/// queue and run times as children; the rest is net self time.
void traceBatch(Tracer &T, const std::vector<Request> &Reqs,
                uint64_t &NextId) {
  if (!T.on())
    return;
  for (const Request &R : Reqs) {
    if (!R.Got)
      continue;
    uint64_t Id = NextId++;
    int64_t Root = T.add("net.request", R.Due, R.Recv, -1, Id);
    T.add("gen.lag", R.Due, R.Sent, Root, Id);
    double Q = R.QueueMs / 1e3, Run = R.RunMs / 1e3;
    double Slack = std::max(0.0, (R.Recv - R.Sent) - Q - Run);
    double At = R.Sent + Slack / 2;
    T.add("service.queue", At, At + Q, Root, Id);
    T.add("service.run", At + Q, At + Q + Run, Root, Id);
  }
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Spawns a server and times it until its first correct response.
bool bringUp(const RunOptions &O, const Placement &Cpus, ServerProcess &S,
             Client &C, double &Secs, std::string &Err) {
  double T0 = now();
  if (!S.start(O, Cpus, Err) || !C.connect(S.Port, Connections)) {
    if (Err.empty())
      Err = "cannot connect to perc";
    return false;
  }
  std::vector<Request> One(1);
  One[0].Kind = 0;
  One[0].Size = 100;
  One[0].Want = referenceFor(0, 100);
  One[0].Frame = frameFor(One[0]);
  One[0].Due = now();
  C.run(One, 20);
  C.nextBatch();
  Secs = now() - T0;
  if (!One[0].Got || !One[0].RunOk) {
    Err = "the first request did not succeed";
    return false;
  }
  return true;
}

/// Work factor of the in-process runs: the largest request size, so
/// each run is long enough to time well.
constexpr double InProcessWork = 16;

/// The serve workload's in-process figures: the cold compile of the
/// served file, and every entry at work factor InProcessWork on both
/// engines, five runs after each compile. Sampled in batches spread over
/// the run, so a burst of host noise moves one batch, not the medians.
class InProcess {
public:
  bool load(const std::string &Path) { return readFile(Path, Source); }

  void sample(int Reps, Tracer &T, Outcomes &Out) {
    sampleHostSpeed(5);
    for (int K = 0; K != Reps; ++K) {
      Compiles.push_back(compileStaged(Source, T));
      const StagedCompile &C = Compiles.back();
      if (!C.Ok) {
        Out.fail("serve.perc does not compile: " + C.Error);
        return;
      }
      for (unsigned E = 0; E != NumEntries; ++E)
        for (int Rep = 0; Rep != 5; ++Rep)
          runEntry(C, E, T, Out);
    }
  }

  void report(Metrics &M) {
    if (Compiles.empty())
      return;
    std::sort(Compiles.begin(), Compiles.end(),
              [](const StagedCompile &A, const StagedCompile &B) {
                return A.TotalS < B.TotalS;
              });
    M.set("compile_s", Compiles[Compiles.size() / 2].TotalS, "s");
    reportCompileLayers({&Compiles[Compiles.size() / 2]}, M);
    double VmS = 0, CekS = 0, Peak = 0;
    std::vector<ProgramRuns> Runs;
    for (unsigned E = 0; E != NumEntries; ++E) {
      Last[E].VmSeconds = median(VmT[E]);
      Last[E].CekSeconds = median(CekT[E]);
      VmS += Last[E].VmSeconds;
      CekS += Last[E].CekSeconds;
      Peak += double(Last[E].VmHeap.PeakBytes);
      Runs.push_back(Last[E]);
    }
    M.set("vm_run_s", VmS, "s");
    M.set("cek_run_s", CekS, "s");
    M.set("peak_bytes", Peak, "B");
    reportEngineLayers(Runs, M);
  }

private:
  void runEntry(const StagedCompile &C, unsigned E, Tracer &T,
                Outcomes &Out) {
    int64_t N = sizeOf(E, InProcessWork);
    std::vector<int64_t> Args = {N, referenceFor(E, N)};
    EngineRun Vm = runStaged(C, Entries[E].Entry, Args, true, T);
    EngineRun Cek = runStaged(C, Entries[E].Entry, Args, false, T);
    std::string Tag = std::string(Entries[E].Entry) + "(" +
                      std::to_string(N) + ") in-process";
    Out.check(Vm.Run.Ok && Cek.Run.Ok && Vm.HeapEmpty && Cek.HeapEmpty,
              Tag + ": trapped or leaked");
    std::string Diff = parityMismatch(Cek, Vm);
    Out.check(Diff.empty(), Tag + ": engines disagree: " + Diff);
    Last[E] = {Entries[E].Program, 0, 0, Vm.Run, Cek.Run, Vm.Heap};
    VmT[E].push_back(Vm.Seconds);
    CekT[E].push_back(Cek.Seconds);
  }

  std::string Source;
  std::vector<StagedCompile> Compiles;
  std::vector<double> VmT[NumEntries], CekT[NumEntries];
  ProgramRuns Last[NumEntries];
};

} // namespace

void perfbench::runServe(const RunOptions &O, double Seconds, Tracer &T,
                         Metrics &M, Outcomes &Out, bool Probe) {
  Rng R(O.Seed ^ 0x5E57Eull);
  // The tenant count is fixed, so every seed gives a run of the same
  // shape; the seed draws each request's tenant.
  const unsigned Tenants = 4;
  Placement Cpus;

  // Set-up: spawn to first correct response. Three spawns here (the last
  // server stays up) and two more after each round below, so the samples
  // spread over the run.
  std::vector<double> SetupT;
  sampleHostSpeed(5);
  auto spawn = [&](std::unique_ptr<ServerProcess> &S,
                   std::unique_ptr<Client> &C) {
    C = std::make_unique<Client>();
    S = std::make_unique<ServerProcess>();
    double Secs = 0;
    std::string Err;
    if (!bringUp(O, Cpus, *S, *C, Secs, Err)) {
      Out.fail("serve set-up: " + Err);
      return false;
    }
    SetupT.push_back(Secs);
    return true;
  };
  auto spareSpawns = [&](int N) {
    for (int K = 0; K != N; ++K) {
      std::unique_ptr<ServerProcess> S;
      std::unique_ptr<Client> C;
      if (!spawn(S, C))
        return false;
      C.reset();
      S->stop();
    }
    return true;
  };
  std::unique_ptr<ServerProcess> Srv;
  std::unique_ptr<Client> Cli;
  if ((!Probe && !spareSpawns(2)) || !spawn(Srv, Cli))
    return;

  // Warm-up: every tenant x engine x entry once, so each shard has
  // compiled for both engines before anything is timed.
  std::vector<Request> Warm;
  for (unsigned Tn = 0; Tn != Tenants; ++Tn)
    for (unsigned E = 0; E != NumEntries; ++E)
      for (bool Vm : {false, true}) {
        Request Q;
        Q.Kind = E;
        Q.Size = sizeOf(E, 1);
        Q.Want = referenceFor(E, Q.Size);
        Q.Vm = Vm;
        Q.Tenant = Tn;
        Q.Frame = frameFor(Q);
        Q.Due = now();
        Warm.push_back(std::move(Q));
      }
  Cli->run(Warm, 20);
  Cli->nextBatch();
  score(Warm, &Out);

  InProcess InProc;
  if (!Probe) {
    if (!InProc.load(O.ServeFile)) {
      Out.fail("cannot read " + O.ServeFile);
      return;
    }
    InProc.sample(3, T, Out);
  }

  // Settle: a short stream at the high rate, checked but not measured.
  // After the host has been idle, latency stays in another regime for
  // many seconds at the base rate; a burst of load ends that.
  std::vector<Request> Settle =
      schedule(R, HighRate, std::max(0.5, 0.05 * Seconds), Tenants);
  Cli->run(Settle, 5);
  Cli->nextBatch();
  score(Settle, &Out, /*Admission=*/false);

  // Base and high: Rounds rounds of a base block then a high block, each
  // phase pooled over its blocks, so each phase samples the whole run
  // rather than one stretch of it. The metrics are over every request of
  // the pool.
  uint64_t SpanId = 1;
  const int Rounds = Probe ? 1 : 5;
  PhaseStats B, H;
  for (int Round = 0; Round != Rounds; ++Round) {
    double BaseS = Probe ? Seconds : 0.09 * Seconds;
    std::vector<Request> Base = schedule(R, BaseRate, BaseS, Tenants);
    if (O.CorruptReference && Round == 0) {
      // Negative control: one ordinary request's reference is off by
      // one, so the program's own check must trap and the run must fail.
      // A request already drawn as a wrong-`want` control would trap as
      // expected and pass, so the first ordinary one is taken.
      auto It = std::find_if(Base.begin(), Base.end(),
                             [](const Request &Q) { return !Q.ExpectTrap; });
      if (It != Base.end()) {
        It->Want += 1;
        It->Frame = frameFor(*It);
      }
    }
    Cli->run(Base, 5);
    Cli->nextBatch();
    traceBatch(T, Base, SpanId);
    B.add(score(Base, Probe ? nullptr : &Out));
    if (Probe)
      break;

    std::vector<Request> High =
        schedule(R, HighRate, 0.04 * Seconds, Tenants);
    Cli->run(High, 5);
    Cli->nextBatch();
    traceBatch(T, High, SpanId);
    H.add(score(High, &Out, /*Admission=*/false));
    InProc.sample(3, T, Out);
    if (!spareSpawns(2))
      return;
  }

  M.set("service.queue_ms_p50", median(B.Queue), "ms");
  M.set("service.queue_ms_p99", quantile(B.Queue, 0.99), "ms");
  M.set("service.run_ms_p50", median(B.Run), "ms");
  M.set("service.run_ms_p99", quantile(B.Run, 0.99), "ms");
  M.set("net.overhead_ms_p50", median(B.Overhead), "ms");
  M.set("net.overhead_ms_p99", quantile(B.Overhead, 0.99), "ms");
  M.set("net.bytes_per_request",
        B.Completed ? double(B.Bytes) / double(B.Completed) : 0, "B");
  M.set("gen.lag_ms_p99", quantile(B.Lag, 0.99), "ms");
  M.set("gen.sent", double(B.Sent), "count");
  M.set("gen.completed", double(B.Completed), "count");
  M.set("runtime.retained_bytes_max", double(B.RetainedMax), "B");
  M.set("service.rejects", double(B.Rejected), "count");
  M.set("service.traps", double(B.Traps), "count");
  M.set("service.cache_hit_ratio",
        B.Executed ? double(B.CacheHits) / double(B.Executed) : 0, "ratio");

  if (Probe) {
    Cli.reset();
    Srv->stop();
    M.set("service.compiles", Srv->stat("compiles"), "count");
    return;
  }

  // max_rps: geometric bisection between the high rate and
  // MaxSearchRate. A step passes when nothing is rejected or lost, p99 is
  // within the limit and the backlog has not grown past it (the median
  // latency of the step's last tenth is within the limit too).
  auto passes = [](const PhaseStats &S) {
    return S.Rejected + S.Missing == 0 && S.p99() <= LatencyLimitMs &&
           S.tailP50() <= LatencyLimitMs;
  };
  double Lo = HighRate, Hi = MaxSearchRate;
  double Best = passes(H) && H.Wall > 0 ? double(H.Completed) / H.Wall : 0;
  if (!passes(H)) {
    Lo = BaseRate;
    Hi = HighRate;
  }
  const int Steps = 6;
  double StepS = 0.2 * Seconds / Steps;
  for (int K = 0; K != Steps; ++K) {
    double Rate = std::sqrt(Lo * Hi);
    std::vector<Request> Step = schedule(R, Rate, StepS, Tenants);
    Cli->run(Step, 2);
    Cli->nextBatch();
    // Output mismatches count as failures here too; rejections and
    // losses only fail the step.
    PhaseStats S = score(Step, &Out, /*Admission=*/false);
    if (K % 2 == 1)
      InProc.sample(2, T, Out);
    if (passes(S)) {
      Lo = Rate;
      Best = std::max(Best, S.Wall > 0 ? double(S.Completed) / S.Wall : 0);
    } else {
      Hi = Rate;
    }
  }
  Cli.reset();
  Srv->stop();

  M.set("setup_s", median(SetupT), "s");
  M.set("p50_ms", median(B.Lat), "ms");
  M.set("p99_ms", B.p99(), "ms");
  M.set("p99_ms_high", H.p99(), "ms");
  M.set("max_rps", Best, "req/s");
  M.set("serve.high_rejects", double(H.Rejected + H.Missing), "count");
  M.set("service.compiles", Srv->stat("compiles"), "count");
  M.set("serve.tenants", Tenants, "count");
  M.set("serve.spawns", double(SetupT.size()), "count");

  InProc.report(M);
}

std::string perfbench::serveFlags() {
  return "--listen=127.0.0.1:0 --shards=" + std::to_string(Shards) +
         " --serve-workers=" + std::to_string(ServeWorkers) +
         " --queue-cap=" + std::to_string(QueueCap);
}
