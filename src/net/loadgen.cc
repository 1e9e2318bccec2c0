#include "net/loadgen.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "common/zipf.h"
#include "discovery/nav_service.h"
#include "net/client.h"
#include "net/protocol.h"

namespace lakeorg {

namespace {

/// Per-user walk state shared by both backends.
struct User {
  size_t index = 0;
  Rng rng{0};
  uint32_t attr = 0;
  NavSessionId sid = 0;
  /// Session open and user still walking.
  bool walking = false;
  /// Session open (a failed step stops the walk but leaves the session
  /// for the close phase).
  bool session_open = false;
  size_t num_choices = 0;
  size_t depth = 0;
};

/// Tallies shared across connection threads.
struct Tally {
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> steps{0};
  std::atomic<uint64_t> refreshes{0};
  std::atomic<uint64_t> closes{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> retry_later{0};
  std::atomic<uint64_t> requests{0};
};

size_t UsersPerBlock(const FleetOptions& options) {
  size_t conns = std::max<size_t>(1, options.connections);
  return (options.users + conns - 1) / conns;
}

void InitUsers(const FleetOptions& options, size_t begin, size_t end,
               const ZipfDistribution& zipf, std::vector<User>* users) {
  users->clear();
  users->reserve(end - begin);
  for (size_t u = begin; u < end; ++u) {
    User user;
    user.index = u;
    user.rng = Rng(options.seed + u * 7919);
    user.attr = static_cast<uint32_t>(zipf.Sample(&user.rng) - 1);
    users->push_back(std::move(user));
  }
}

void Record(const FleetOptions& options, std::vector<UserTrace>* traces,
            const User& user, TraceEvent event) {
  if (options.record_traces) (*traces)[user.index].push_back(event);
}

bool SkipClose(const FleetOptions& options, const User& user) {
  return options.leave_open_modulo > 0 &&
         user.index % options.leave_open_modulo == 0;
}

}  // namespace

WalkAction NextWalkAction(size_t num_choices, size_t depth, size_t max_depth,
                          Rng* rng) {
  if (num_choices == 0 || depth >= max_depth) return {'r', 0};
  if (depth > 0 && rng->Bernoulli(0.1)) return {'b', 0};
  size_t top = std::min<size_t>(3, num_choices);
  size_t rank = rng->Bernoulli(0.7)
                    ? 0
                    : static_cast<size_t>(rng->UniformInt(
                          0, static_cast<int64_t>(top) - 1));
  return {'d', rank};
}

FleetReport RunFleetInProcess(NavService* service,
                              const FleetOptions& options) {
  ZipfDistribution zipf(std::max<size_t>(1, options.num_attrs),
                        options.zipf_s);
  Tally tally;
  std::vector<UserTrace> traces;
  if (options.record_traces) traces.resize(options.users);
  size_t per_block = UsersPerBlock(options);
  size_t conns = std::max<size_t>(1, options.connections);

  WallTimer timer;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    size_t begin = c * per_block;
    size_t end = std::min(options.users, begin + per_block);
    if (begin >= end) break;
    threads.emplace_back([&, begin, end] {
      std::vector<User> users;
      InitUsers(options, begin, end, zipf, &users);

      for (User& user : users) {
        Result<NavSessionId> opened(0);
        for (size_t attempt = 0;; ++attempt) {
          opened = service->Open(user.attr);
          tally.requests.fetch_add(1, std::memory_order_relaxed);
          if (opened.ok() ||
              opened.status().code() != StatusCode::kUnavailable) {
            break;
          }
          tally.retry_later.fetch_add(1, std::memory_order_relaxed);
          if (attempt >= options.open_retry_limit) break;
        }
        if (!opened.ok()) {
          tally.errors.fetch_add(1, std::memory_order_relaxed);
          Record(options, &traces, user, {'o', user.attr, kInvalidId, false});
          continue;
        }
        user.sid = opened.value();
        Result<NavView> view = service->Peek(user.sid);
        tally.requests.fetch_add(1, std::memory_order_relaxed);
        if (!view.ok()) {
          tally.errors.fetch_add(1, std::memory_order_relaxed);
          Record(options, &traces, user, {'o', user.attr, kInvalidId, false});
          user.session_open = true;
          continue;
        }
        user.walking = true;
        user.session_open = true;
        user.num_choices = view.value().NumChoices();
        user.depth = view.value().depth;
        tally.opens.fetch_add(1, std::memory_order_relaxed);
        Record(options, &traces, user,
               {'o', user.attr, view.value().state, true});
      }

      std::vector<NavStepRequest> batch;
      std::vector<size_t> owner;  // index into `users`
      std::vector<WalkAction> acts;
      for (size_t round = 0; round < options.steps_per_user; ++round) {
        batch.clear();
        owner.clear();
        acts.clear();
        for (size_t i = 0; i < users.size(); ++i) {
          User& user = users[i];
          if (!user.walking) continue;
          WalkAction act = NextWalkAction(user.num_choices, user.depth,
                                          options.max_depth, &user.rng);
          if (act.op == 'r') {
            Result<NavView> view = service->Refresh(user.sid);
            tally.requests.fetch_add(1, std::memory_order_relaxed);
            if (view.ok()) {
              user.num_choices = view.value().NumChoices();
              user.depth = view.value().depth;
              tally.refreshes.fetch_add(1, std::memory_order_relaxed);
              Record(options, &traces, user,
                     {'r', 0, view.value().state, true});
            } else {
              user.walking = false;
              tally.errors.fetch_add(1, std::memory_order_relaxed);
              Record(options, &traces, user, {'r', 0, kInvalidId, false});
            }
            continue;
          }
          NavStepRequest req;
          req.session = user.sid;
          req.kind = act.op == 'b' ? NavStepRequest::Kind::kBack
                                   : NavStepRequest::Kind::kDescend;
          req.rank = act.rank;
          batch.push_back(req);
          owner.push_back(i);
          acts.push_back(act);
        }
        if (batch.empty()) continue;
        std::vector<Result<NavView>> results = service->ExecuteBatch(batch);
        tally.requests.fetch_add(batch.size(), std::memory_order_relaxed);
        for (size_t j = 0; j < results.size(); ++j) {
          User& user = users[owner[j]];
          uint32_t rank = static_cast<uint32_t>(acts[j].rank);
          if (results[j].ok()) {
            const NavView& view = results[j].value();
            user.num_choices = view.NumChoices();
            user.depth = view.depth;
            tally.steps.fetch_add(1, std::memory_order_relaxed);
            Record(options, &traces, user, {acts[j].op, rank, view.state,
                                            true});
          } else {
            user.walking = false;
            tally.errors.fetch_add(1, std::memory_order_relaxed);
            Record(options, &traces, user, {acts[j].op, rank, kInvalidId,
                                            false});
          }
        }
      }

      for (User& user : users) {
        if (!user.session_open || SkipClose(options, user)) continue;
        Status st = service->Close(user.sid);
        tally.requests.fetch_add(1, std::memory_order_relaxed);
        if (st.ok()) {
          tally.closes.fetch_add(1, std::memory_order_relaxed);
        } else {
          tally.errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  FleetReport report;
  report.opens = tally.opens.load();
  report.steps = tally.steps.load();
  report.refreshes = tally.refreshes.load();
  report.closes = tally.closes.load();
  report.errors = tally.errors.load();
  report.retry_later = tally.retry_later.load();
  report.requests = tally.requests.load();
  report.seconds = timer.ElapsedSeconds();
  report.traces = std::move(traces);
  return report;
}

Result<FleetReport> RunFleetOverSocket(const std::string& host, uint16_t port,
                                       const FleetOptions& options) {
  ZipfDistribution zipf(std::max<size_t>(1, options.num_attrs),
                        options.zipf_s);
  Tally tally;
  std::vector<UserTrace> traces;
  if (options.record_traces) traces.resize(options.users);
  size_t per_block = UsersPerBlock(options);
  size_t conns = std::max<size_t>(1, options.connections);
  std::atomic<bool> failed{false};
  std::mutex fail_mu;
  Status fail_status = Status::OK();

  auto fail = [&](const Status& st) {
    failed.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(fail_mu);
    if (fail_status.ok()) fail_status = st;
  };

  WallTimer timer;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    size_t begin = c * per_block;
    size_t end = std::min(options.users, begin + per_block);
    if (begin >= end) break;
    threads.emplace_back([&, begin, end] {
      NavClient client;
      Status st = client.Connect(host, port, options.receive_timeout_seconds);
      if (!st.ok()) {
        fail(st);
        return;
      }
      std::vector<User> users;
      InitUsers(options, begin, end, zipf, &users);

      // Open phase: one pipelined burst, then per-user retries for
      // RETRY_LATER rejections.
      for (User& user : users) {
        NetRequest req;
        req.op = NetOp::kOpen;
        req.attr = user.attr;
        req.k = options.k;
        client.Queue(req);
      }
      tally.requests.fetch_add(users.size(), std::memory_order_relaxed);
      if (Status fst = client.Flush(); !fst.ok()) {
        fail(fst);
        return;
      }
      for (User& user : users) {
        Result<NetView> view = client.ReceiveView();
        for (size_t attempt = 0;
             !view.ok() && view.status().code() == StatusCode::kUnavailable;
             ++attempt) {
          tally.retry_later.fetch_add(1, std::memory_order_relaxed);
          if (attempt >= options.open_retry_limit) break;
          NetRequest req;
          req.op = NetOp::kOpen;
          req.attr = user.attr;
          req.k = options.k;
          tally.requests.fetch_add(1, std::memory_order_relaxed);
          Result<Json> reply = client.Call(req);
          view = reply.ok() ? ViewFromReply(reply.value())
                            : Result<NetView>(reply.status());
        }
        if (!view.ok()) {
          if (view.status().code() == StatusCode::kInternal) {
            // Transport failure, not a service rejection: bail out.
            fail(view.status());
            return;
          }
          tally.errors.fetch_add(1, std::memory_order_relaxed);
          Record(options, &traces, user, {'o', user.attr, kInvalidId, false});
          continue;
        }
        user.sid = view.value().session;
        user.walking = true;
        user.session_open = true;
        user.num_choices = view.value().num_choices;
        user.depth = view.value().depth;
        tally.opens.fetch_add(1, std::memory_order_relaxed);
        Record(options, &traces, user,
               {'o', user.attr, view.value().state, true});
      }

      // Walk phase: lockstep pipelined bursts.
      std::vector<size_t> owner;
      std::vector<WalkAction> acts;
      for (size_t round = 0; round < options.steps_per_user; ++round) {
        owner.clear();
        acts.clear();
        for (size_t i = 0; i < users.size(); ++i) {
          User& user = users[i];
          if (!user.walking) continue;
          WalkAction act = NextWalkAction(user.num_choices, user.depth,
                                          options.max_depth, &user.rng);
          NetRequest req;
          req.session = user.sid;
          req.k = options.k;
          req.op = act.op == 'r'   ? NetOp::kRefresh
                   : act.op == 'b' ? NetOp::kBack
                                   : NetOp::kDescend;
          req.rank = act.rank;
          client.Queue(req);
          owner.push_back(i);
          acts.push_back(act);
        }
        if (owner.empty()) continue;
        tally.requests.fetch_add(owner.size(), std::memory_order_relaxed);
        if (Status fst = client.Flush(); !fst.ok()) {
          fail(fst);
          return;
        }
        for (size_t j = 0; j < owner.size(); ++j) {
          User& user = users[owner[j]];
          uint32_t rank = static_cast<uint32_t>(acts[j].rank);
          Result<NetView> view = client.ReceiveView();
          if (view.ok()) {
            user.num_choices = view.value().num_choices;
            user.depth = view.value().depth;
            if (acts[j].op == 'r') {
              tally.refreshes.fetch_add(1, std::memory_order_relaxed);
            } else {
              tally.steps.fetch_add(1, std::memory_order_relaxed);
            }
            Record(options, &traces, user,
                   {acts[j].op, rank, view.value().state, true});
          } else {
            if (view.status().code() == StatusCode::kInternal) {
              fail(view.status());
              return;
            }
            user.walking = false;
            tally.errors.fetch_add(1, std::memory_order_relaxed);
            Record(options, &traces, user, {acts[j].op, rank, kInvalidId,
                                            false});
          }
        }
      }

      // Close phase: one pipelined burst.
      owner.clear();
      for (size_t i = 0; i < users.size(); ++i) {
        User& user = users[i];
        if (!user.session_open || SkipClose(options, user)) continue;
        NetRequest req;
        req.op = NetOp::kClose;
        req.session = user.sid;
        client.Queue(req);
        owner.push_back(i);
      }
      if (!owner.empty()) {
        tally.requests.fetch_add(owner.size(), std::memory_order_relaxed);
        if (Status fst = client.Flush(); !fst.ok()) {
          fail(fst);
          return;
        }
        for (size_t j = 0; j < owner.size(); ++j) {
          Result<Json> reply = client.Receive();
          if (reply.ok()) {
            tally.closes.fetch_add(1, std::memory_order_relaxed);
          } else if (reply.status().code() == StatusCode::kInternal) {
            fail(reply.status());
            return;
          } else {
            tally.errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (failed.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(fail_mu);
    return fail_status;
  }

  FleetReport report;
  report.opens = tally.opens.load();
  report.steps = tally.steps.load();
  report.refreshes = tally.refreshes.load();
  report.closes = tally.closes.load();
  report.errors = tally.errors.load();
  report.retry_later = tally.retry_later.load();
  report.requests = tally.requests.load();
  report.seconds = timer.ElapsedSeconds();
  report.traces = std::move(traces);
  return report;
}

}  // namespace lakeorg
