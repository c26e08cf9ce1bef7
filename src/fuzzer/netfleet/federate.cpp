#include "fuzzer/netfleet/federate.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <exception>
#include <set>
#include <sstream>
#include <thread>

#include "fuzzer/netfleet/transport.h"
#include "util/syscall.h"
#include "util/timing.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMsNs = 1'000'000ull;

// Reads until EOF (the child closing its end of the pipe).
std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t r = xread(fd, buf, sizeof(buf));
    if (r <= 0) break;
    out.append(buf, static_cast<usize>(r));
  }
  return out;
}

// One forked coordinator node: runs the fleet, reports over `pipe_wr`,
// never returns.
[[noreturn]] void child_main(const Program& program,
                             const std::vector<Input>& seeds,
                             const procfleet::ProcFleetConfig& config,
                             int pipe_wr) {
  std::string report;
  try {
    const procfleet::ProcFleetResult r =
        procfleet::run_process_fleet(program, seeds, config);
    report = encode_half_report(r, true, "");
  } catch (const std::exception& e) {
    report = encode_half_report(procfleet::ProcFleetResult{}, false,
                                e.what());
  } catch (...) {
    report = encode_half_report(procfleet::ProcFleetResult{}, false,
                                "unknown exception");
  }
  (void)write_full(pipe_wr, reinterpret_cast<const u8*>(report.data()),
                   report.size());
  xclose(pipe_wr);
  ::_exit(0);
}

}  // namespace

std::string encode_half_report(const procfleet::ProcFleetResult& r, bool ok,
                               const std::string& error) {
  std::ostringstream os;
  os << "ok " << (ok ? 1 : 0) << "\n";
  if (!error.empty()) os << "error " << error << "\n";
  os << "bug_ids";
  for (u32 b : r.found_bug_ids) os << ' ' << b;
  os << "\nstack_hashes";
  for (u64 h : r.found_stack_hashes) os << ' ' << h;
  os << "\nall_completed " << (r.all_completed() ? 1 : 0) << "\n";
  for_each_report_field(r, [&](const char* key, const auto& v) {
    os << key << ' ' << v << '\n';
  });
  return os.str();
}

bool decode_half_report(const std::string& text, HalfReport* out) {
  HalfReport r;
  bool saw_ok = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "ok") {
      int v = 0;
      ls >> v;
      r.ok = v != 0;
      saw_ok = true;
    } else if (key == "error") {
      std::getline(ls, r.error);
      if (!r.error.empty() && r.error.front() == ' ') r.error.erase(0, 1);
    } else if (key == "bug_ids") {
      u32 v;
      while (ls >> v) r.bug_ids.push_back(v);
    } else if (key == "stack_hashes") {
      u64 v;
      while (ls >> v) r.stack_hashes.push_back(v);
    } else if (key == "all_completed") {
      int v = 0;
      ls >> v;
      r.all_completed = v != 0;
    } else {
      for_each_report_field(r, [&](const char* k, auto& v) {
        if (key == k) ls >> v;
      });
    }
  }
  if (!saw_ok) return false;
  *out = r;
  return true;
}

FederationResult run_federation(const Program& program,
                                const std::vector<Input>& seeds,
                                std::vector<procfleet::ProcFleetConfig> nodes,
                                const FederationOpts& opts) {
  FederationResult out;
  const usize n = nodes.size();
  if (n < 2) {
    out.error = "federate: need at least two nodes";
    return out;
  }
  ignore_sigpipe();

  // Shared session identity, derived from config the nodes genuinely have
  // in common — seeds and worker counts legitimately differ per node, so
  // the coordinator's per-fleet auto-fingerprint would spuriously mismatch.
  bool any_fp = false;
  for (const procfleet::ProcFleetConfig& c : nodes) {
    any_fp = any_fp || c.failover.link.session_fingerprint != 0;
  }
  if (!any_fp) {
    u64 h = 0x66656465ull;  // "fede"
    for (u64 v :
         {nodes[0].base.max_execs, static_cast<u64>(nodes[0].base.scheme),
          static_cast<u64>(nodes[0].base.metric),
          static_cast<u64>(nodes[0].base.map.map_size)}) {
      h = (h ^ v) * 0x100000001b3ull;
    }
    for (procfleet::ProcFleetConfig& c : nodes) {
      c.failover.link.session_fingerprint = h;
    }
  }

  // The full listener matrix: fds[h][s] is the socket rank s dials when
  // rank h leads, bound in the parent so every future leadership already
  // has its wiring. The parent keeps every fd open for the whole run — a
  // resurrected rank re-inherits its row on re-fork.
  std::vector<std::vector<int>> fds(n, std::vector<int>(n, -1));
  std::vector<std::vector<u16>> ports(n, std::vector<u16>(n, 0));
  auto close_matrix = [&] {
    for (auto& row : fds) {
      for (int& fd : row) {
        if (fd >= 0) xclose(fd);
        fd = -1;
      }
    }
  };
  for (usize h = 0; h < n; ++h) {
    for (usize s = 0; s < n; ++s) {
      if (h == s) continue;
      std::string err;
      fds[h][s] = tcp_listen("127.0.0.1", &ports[h][s], &err);
      if (fds[h][s] < 0) {
        out.error = "federate: " + err;
        close_matrix();
        return out;
      }
    }
  }

  for (usize i = 0; i < n; ++i) {
    FailoverNodeConfig& fo = nodes[i].failover;
    fo.rank = static_cast<u32>(i);
    fo.num_nodes = static_cast<u32>(n);
    fo.initial_leader = 0;
    if (fo.initial_epoch == 0) fo.initial_epoch = 1;
    fo.link.node_id = i;
    fo.listen_fds.assign(n, -1);
    fo.dial_ports.assign(n, 0);
    for (usize j = 0; j < n; ++j) {
      if (j == i) continue;
      fo.listen_fds[j] = fds[i][j];
      fo.dial_ports[j] = ports[j][i];
    }
  }

  std::vector<std::array<int, 2>> pipes(n, {-1, -1});
  auto close_pipes = [&] {
    for (auto& p : pipes) {
      if (p[0] >= 0) xclose(p[0]);
      if (p[1] >= 0) xclose(p[1]);
      p = {-1, -1};
    }
  };
  for (auto& p : pipes) {
    if (::pipe(p.data()) != 0) {
      out.error = "federate: pipe failed";
      close_pipes();
      close_matrix();
      return out;
    }
  }

  // Forks rank i into its OWN process group, so one SIGKILL(-pgid) takes
  // the coordinator AND every worker it forked. The child drops every
  // matrix fd outside its own row (two processes accepting one listening
  // socket would steal each other's connections) and every pipe but its
  // own write end. The parent's write end is closed right after.
  auto spawn = [&](usize i) -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      (void)::setpgid(0, 0);
      for (usize j = 0; j < pipes.size(); ++j) {
        if (pipes[j][0] >= 0) xclose(pipes[j][0]);
        if (j != i && pipes[j][1] >= 0) xclose(pipes[j][1]);
      }
      for (usize h = 0; h < n; ++h) {
        if (h == i) continue;
        for (usize s = 0; s < n; ++s) {
          if (fds[h][s] >= 0) xclose(fds[h][s]);
        }
      }
      child_main(program, seeds, nodes[i], pipes[i][1]);
    }
    if (pid > 0) (void)::setpgid(pid, pid);
    xclose(pipes[i][1]);
    pipes[i][1] = -1;
    return pid;
  };
  std::vector<pid_t> pids(n, -1);
  std::vector<bool> alive(n, false);
  auto kill_all = [&] {
    for (usize i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      ::kill(-pids[i], SIGKILL);
      int st = 0;
      (void)xwaitpid(pids[i], &st, 0);
      alive[i] = false;
    }
  };

  for (usize i = 0; i < n; ++i) {
    pids[i] = spawn(i);
    alive[i] = pids[i] > 0;
    if (pids[i] < 0) out.error = "federate: fork failed";
  }

  // Event loop: reap exiting ranks; a rank that died by SIGKILL (its own
  // kill trigger, or a host-level kill) is re-forked resurrect_after_ms
  // after its reaping when the policy says so — once per rank.
  const bool resurrect = opts.resurrect != FederationOpts::Resurrect::kNone;
  std::vector<bool> killed(n, false);
  std::vector<u64> resurrect_at(n, 0);  // 0 = none pending
  while (out.error.empty()) {
    const u64 now = monotonic_ns();
    bool busy = false;
    for (usize i = 0; i < n; ++i) {
      if (alive[i]) {
        int st = 0;
        if (::waitpid(pids[i], &st, WNOHANG) != pids[i]) {
          busy = true;
          continue;
        }
        alive[i] = false;
        if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL && !killed[i]) {
          killed[i] = true;
          if (resurrect) {
            resurrect_at[i] =
                now + static_cast<u64>(opts.resurrect_after_ms) * kMsNs + 1;
          }
        }
      }
      if (resurrect_at[i] == 0) continue;
      busy = true;
      if (now < resurrect_at[i]) continue;
      resurrect_at[i] = 0;
      // Drain the dead generation's (empty or partial) report and give the
      // resurrection a fresh pipe.
      (void)read_all(pipes[i][0]);
      xclose(pipes[i][0]);
      pipes[i][0] = -1;
      if (::pipe(pipes[i].data()) != 0) {
        out.error = "federate: resurrection pipe failed";
        break;
      }
      procfleet::ProcFleetConfig& c = nodes[i];
      c.resume = true;
      c.failover.resume_probe = true;
      c.failover.stale_fatal =
          opts.resurrect == FederationOpts::Resurrect::kStale;
      // A fresh injector would replay the kill that just fired.
      c.fault = nullptr;
      pids[i] = spawn(i);
      alive[i] = pids[i] > 0;
      if (pids[i] < 0) out.error = "federate: resurrection fork failed";
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!out.error.empty()) {
    kill_all();
    close_pipes();
    close_matrix();
    return out;
  }

  std::vector<std::string> texts(n);
  for (usize i = 0; i < n; ++i) texts[i] = read_all(pipes[i][0]);
  close_pipes();
  close_matrix();

  out.nodes.resize(n);
  std::set<u32> bugs;
  std::set<u64> hashes;
  out.all_completed = true;
  for (usize i = 0; i < n; ++i) {
    HalfReport& r = out.nodes[i];
    const std::string who = "rank " + std::to_string(i);
    if (killed[i] && !resurrect) {
      r.error = "killed (no resurrection)";
      continue;  // dead forever by design; not a harness failure
    }
    if (!decode_half_report(texts[i], &r)) {
      out.error = "federate: " + who + " produced no report";
      return out;
    }
    if (!r.ok) {
      out.error = "federate: " + who + " failed: " + r.error;
      return out;
    }
    bugs.insert(r.bug_ids.begin(), r.bug_ids.end());
    hashes.insert(r.stack_hashes.begin(), r.stack_hashes.end());
    out.total_execs += r.total_execs;
    out.total_interesting += r.total_interesting;
    out.total_crashes += r.total_crashes;
    out.all_completed = out.all_completed && r.all_completed;
  }
  out.found_bug_ids.assign(bugs.begin(), bugs.end());
  out.found_stack_hashes.assign(hashes.begin(), hashes.end());
  out.ok = true;
  return out;
}

}  // namespace bigmap::netfleet
