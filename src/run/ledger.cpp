#include "run/ledger.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "run/report.h"
#include "util/parallel.h"

namespace bdg::run {

SweepLedger::SweepLedger(const SweepSpec& spec,
                         std::chrono::milliseconds lease_timeout)
    : spec_(spec),
      lease_timeout_(lease_timeout),
      grid_(expand_grid(spec_)),
      spec_fp_(run::spec_fingerprint(spec_)),
      grid_fp_(run::grid_fingerprint(spec_, grid_)),
      t0_(Clock::now()) {
  const RestoredCheckpoint restored =
      restore_checkpoint(spec_, grid_, result_.points);
  result_.from_checkpoint = restored.restored;
  result_.torn_checkpoint_lines = restored.torn;
  need_ = restored.todo.size();
  pending_.assign(restored.todo.begin(), restored.todo.end());
  have_.assign(grid_.size(), 1);
  for (const std::size_t i : restored.todo) have_[i] = 0;
  owner_.assign(grid_.size(), 0);

  seed_to_index_.reserve(grid_.size());
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    seed_to_index_[point_seed(spec_.base_seed, grid_[i])] = i;
    if (have_[i]) agg_.add(i, result_.points[i]);
  }

  if (!spec_.checkpoint_path.empty() && need_ != 0) {
    ck_.open(spec_.checkpoint_path, std::ios::app);
    if (!ck_)
      throw std::runtime_error("cannot open checkpoint " +
                               spec_.checkpoint_path);
  }
}

void SweepLedger::abort() {
  if (!complete()) aborted_.store(true);
}

SweepLedger::Leases::iterator SweepLedger::lease_of(int holder) {
  return std::find_if(leases_.begin(), leases_.end(), [holder](const auto& l) {
    return l.second.holder == holder;
  });
}

void SweepLedger::requeue(Leases::iterator lease) {
  // Front of the queue, in lease order: dispatch stays near grid order.
  const std::vector<std::size_t>& rem = lease->second.remaining;
  if (!rem.empty()) ++stats_.leases_reassigned;
  for (auto r = rem.rbegin(); r != rem.rend(); ++r) {
    owner_[*r] = 0;
    pending_.push_front(*r);
  }
  leases_.erase(lease);
}

std::uint64_t SweepLedger::grant(int holder, std::size_t max_points,
                                 Clock::time_point now, const SendLease& send) {
  if (lease_of(holder) != leases_.end()) return 0;
  std::vector<std::size_t> batch;
  while (!pending_.empty() && batch.size() < max_points) {
    const std::size_t idx = pending_.front();
    pending_.pop_front();
    if (!have_[idx]) batch.push_back(idx);  // else: merged while queued
  }
  if (batch.empty()) return 0;
  const std::uint64_t id = next_lease_++;
  if (!send(id, batch)) {
    pending_.insert(pending_.begin(), batch.begin(), batch.end());
    return 0;
  }
  for (const std::size_t idx : batch) owner_[idx] = id;
  leases_.emplace(id, Lease{std::move(batch), holder, now + lease_timeout_});
  ++stats_.leases_granted;
  return id;
}

void SweepLedger::heartbeat(int holder, std::uint64_t id,
                            Clock::time_point now) {
  const auto it = leases_.find(id);
  if (it != leases_.end() && it->second.holder == holder)
    it->second.deadline = now + lease_timeout_;
}

void SweepLedger::lease_done(int holder, std::uint64_t id) {
  // Results still missing were lost in transit: the worker ran them but
  // they never arrived. Re-running is safe (results are deterministic) and
  // the checkpoint never saw them.
  const auto it = leases_.find(id);
  if (it != leases_.end() && it->second.holder == holder) requeue(it);
}

void SweepLedger::release(int holder) {
  const auto it = lease_of(holder);
  if (it != leases_.end()) requeue(it);
}

std::vector<int> SweepLedger::expired(Clock::time_point now) const {
  std::vector<int> out;
  for (const auto& [id, lease] : leases_)
    if (now >= lease.deadline) out.push_back(lease.holder);
  return out;
}

bool SweepLedger::unleased_work() const {
  return !pending_.empty() && leases_.empty();
}

void SweepLedger::merge_at(std::size_t idx, PointResult&& result) {
  result_.points[idx] = std::move(result);
  have_[idx] = 1;
  ++merged_;
  const PointResult& p = result_.points[idx];
  agg_.add(idx, p);
  if (owner_[idx] != 0) {
    const auto it = leases_.find(owner_[idx]);
    if (it != leases_.end()) {
      auto& rem = it->second.remaining;
      const auto r = std::find(rem.begin(), rem.end(), idx);
      if (r != rem.end()) rem.erase(r);
    }
    owner_[idx] = 0;
  }
  if (ck_.is_open())
    append_checkpoint_line(ck_, spec_.checkpoint_path, p, spec_fp_);
  if (spec_.progress &&
      !spec_.progress(p, result_.from_checkpoint + merged_, grid_.size()))
    aborted_.store(true);
}

void SweepLedger::merge(int holder, PointResult&& result,
                        Clock::time_point now) {
  const auto lease = lease_of(holder);
  if (lease != leases_.end()) lease->second.deadline = now + lease_timeout_;
  std::lock_guard<std::mutex> lock(mu_);
  // Results are keyed by derived seed on the wire; whichever copy of a
  // point lands first is THE result (results are deterministic per seed).
  const std::size_t* found = seed_to_index_.find(result.derived_seed);
  if (found == nullptr || !same_point(result.point, grid_[*found])) {
    ++stats_.protocol_errors;
    return;
  }
  if (have_[*found]) {
    ++stats_.duplicate_results;
    return;
  }
  merge_at(*found, std::move(result));
}

void SweepLedger::run_pending(const std::atomic<bool>* stop) {
  std::vector<std::size_t> batch;
  batch.reserve(pending_.size());
  for (const std::size_t idx : pending_)
    if (!have_[idx]) batch.push_back(idx);
  pending_.clear();
  // Each point owns its Engine and Rng and lands at its grid index, so the
  // result is byte-identical for every thread count.
  parallel_for_index(
      batch.size(),
      [&](std::size_t j) {
        PointResult r = run_point(spec_, grid_[batch[j]]);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.local_fallback_points;
        merge_at(batch[j], std::move(r));
      },
      spec_.threads,
      [&] { return aborted_.load() || (stop != nullptr && stop->load()); });
}

SweepResult SweepLedger::finish() {
  result_.aborted = aborted_.load();
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (have_[i]) continue;
    PointResult& r = result_.points[i];
    r.point = grid_[i];
    r.derived_seed = point_seed(spec_.base_seed, grid_[i]);
    r.skipped = true;
    r.skip_reason = "aborted before running (resume from checkpoint)";
  }
  if (spec_.measure_seconds)
    result_.wall_seconds =
        std::chrono::duration<double>(Clock::now() - t0_).count();
  result_.cells = agg_.cells();
  return std::move(result_);
}

QueryReply SweepLedger::answer(const QueryRequest& q) {
  QueryReply r;
  r.what = q.what;
  std::lock_guard<std::mutex> lock(mu_);
  r.total = grid_.size();
  r.completed = result_.from_checkpoint + merged_;
  r.restored = result_.from_checkpoint;
  r.cells = agg_.cell_count();
  r.done = complete();
  r.stats = stats_;
  if (q.what == "cells") {
    for (const CellAggregate& c : agg_.cells()) {
      if (q.algorithm && *q.algorithm != core::to_string(c.algorithm)) continue;
      if (q.family && *q.family != c.family) continue;
      if (q.mix && *q.mix != mix_to_string(c.mix)) continue;
      if (q.n && *q.n != c.n) continue;
      if (q.k && *q.k != (c.k == 0 ? c.n : c.k)) continue;
      if (q.f && *q.f != c.f) continue;
      std::ostringstream os;
      write_cell_json(os, c);
      r.bodies.push_back(os.str());
    }
  } else if (q.what == "point") {
    std::size_t idx = grid_.size();
    if (q.index) {
      if (*q.index < grid_.size())
        idx = static_cast<std::size_t>(*q.index);
      else
        r.error = "index out of range";
    } else if (q.derived_seed) {
      const std::size_t* found = seed_to_index_.find(*q.derived_seed);
      if (found != nullptr)
        idx = *found;
      else
        r.error = "unknown derived seed";
    } else {
      r.error = "point query needs derived_seed or index";
    }
    if (idx < grid_.size()) {
      if (have_[idx]) {
        std::ostringstream os;
        write_point_json(os, result_.points[idx]);
        r.bodies.push_back(os.str());
      } else {
        r.pending = true;  // known point, no result yet
      }
    }
  } else if (q.what != "progress") {
    r.error = "unknown query what";
  }
  return r;
}

}  // namespace bdg::run
