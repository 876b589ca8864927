#include "wrapper/fault_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dqsched::wrapper {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDisconnect:
      return "disconnect";
    case FaultKind::kDeath:
      return "death";
  }
  return "unknown";
}

Status FaultSpec::Validate() const {
  if (at_tuple < 0) {
    return Status::InvalidArgument("fault at_tuple must be >= 0");
  }
  switch (kind) {
    case FaultKind::kStall:
      if (stall <= 0) {
        return Status::InvalidArgument("fault stall duration must be > 0");
      }
      break;
    case FaultKind::kDisconnect:
      if (failed_attempts < 0) {
        return Status::InvalidArgument("fault failed_attempts must be >= 0");
      }
      if (failed_attempts > 32) {
        return Status::InvalidArgument(
            "fault failed_attempts > 32 overflows the exponential backoff");
      }
      if (backoff_initial <= 0) {
        return Status::InvalidArgument("fault backoff_initial must be > 0");
      }
      if (!(backoff_jitter >= 0.0 && backoff_jitter < 1.0)) {
        return Status::InvalidArgument("fault backoff_jitter must be in [0, 1)");
      }
      break;
    case FaultKind::kDeath:
      break;
  }
  return Status::Ok();
}

Status FaultSchedule::Validate() const {
  int64_t prev = -1;
  for (size_t i = 0; i < events.size(); ++i) {
    DQS_RETURN_IF_ERROR(events[i].Validate());
    if (events[i].at_tuple <= prev) {
      return Status::InvalidArgument(
          "fault events must have strictly increasing at_tuple");
    }
    if (i + 1 < events.size() && events[i].kind == FaultKind::kDeath) {
      return Status::InvalidArgument(
          "no fault event can follow a death event");
    }
    prev = events[i].at_tuple;
  }
  return Status::Ok();
}

const char* StormKindName(StormKind kind) {
  switch (kind) {
    case StormKind::kNone:
      return "none";
    case StormKind::kRegionOutage:
      return "region-outage";
    case StormKind::kCascadingSlowdown:
      return "cascade";
    case StormKind::kFlapping:
      return "flapping";
  }
  return "unknown";
}

bool ParseStormKind(const std::string& name, StormKind* out) {
  for (StormKind kind :
       {StormKind::kNone, StormKind::kRegionOutage,
        StormKind::kCascadingSlowdown, StormKind::kFlapping}) {
    if (name == StormKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

Status StormConfig::Validate() const {
  if (kind == StormKind::kNone) return Status::Ok();
  if (!(region_fraction > 0.0 && region_fraction <= 1.0)) {
    return Status::InvalidArgument("storm region_fraction must be in (0, 1]");
  }
  if (onset < 0) {
    return Status::InvalidArgument("storm onset must be >= 0");
  }
  if (!(jitter >= 0.0 && jitter < 1.0)) {
    return Status::InvalidArgument("storm jitter must be in [0, 1)");
  }
  switch (kind) {
    case StormKind::kNone:
      break;
    case StormKind::kRegionOutage:
      if (!lethal && outage <= 0) {
        return Status::InvalidArgument("storm outage must be > 0");
      }
      break;
    case StormKind::kCascadingSlowdown:
      if (wave_stall <= 0 || propagation < 0 || waves <= 0) {
        return Status::InvalidArgument(
            "cascade needs wave_stall > 0, propagation >= 0, waves > 0");
      }
      break;
    case StormKind::kFlapping:
      if (flap_period <= 0 || flaps <= 0) {
        return Status::InvalidArgument(
            "flapping needs flap_period > 0, flaps > 0");
      }
      break;
  }
  return Status::Ok();
}

namespace {

// Absolute virtual time -> fresh-tuple index for an attempt that starts
// delivering at `start` with mean inter-tuple delay `mean_delay_ns`.
int64_t TupleIndexAt(SimTime when, SimTime start, double mean_delay_ns) {
  if (when <= start) return 0;
  return static_cast<int64_t>(static_cast<double>(when - start) /
                              mean_delay_ns);
}

double JitterScale(double jitter, Rng* rng) {
  return 1.0 + jitter * (2.0 * rng->NextDouble() - 1.0);
}

// Appends the stall this attempt observes at tuple index `at` (bumped to
// keep the schedule strictly increasing, dropped once past cardinality).
void AppendStall(std::vector<FaultSpec>* events, int64_t at,
                 SimDuration stall, int64_t cardinality) {
  if (stall <= 0) return;
  int64_t idx = at;
  if (!events->empty()) idx = std::max(idx, events->back().at_tuple + 1);
  if (idx >= cardinality) return;
  FaultSpec spec;
  spec.kind = FaultKind::kStall;
  spec.at_tuple = idx;
  spec.stall = stall;
  events->push_back(spec);
}

// Appends what this attempt observes of an absolute-time silence window
// [from, from + len): nothing if the window has already passed, the
// remaining silence from tuple 0 if the attempt starts mid-window, or
// the full silence at the mapped tuple index if the window is ahead.
void AppendWindow(std::vector<FaultSpec>* events, SimTime start,
                  double mean_delay_ns, int64_t cardinality, SimTime from,
                  SimDuration len) {
  if (len <= 0) return;
  const SimTime until = from + len;
  if (start >= until) return;
  if (start >= from) {
    AppendStall(events, 0, until - start, cardinality);
  } else {
    AppendStall(events, TupleIndexAt(from, start, mean_delay_ns), len,
                cardinality);
  }
}

}  // namespace

FaultSchedule BuildStormSchedule(const StormConfig& storm, int source_index,
                                 int num_sources, SimTime start,
                                 double mean_delay_ns, int64_t cardinality,
                                 Rng* rng) {
  FaultSchedule schedule;
  if (!storm.active() || num_sources <= 0 || cardinality <= 0 ||
      mean_delay_ns <= 0.0) {
    return schedule;
  }
  const int width = std::max(
      1, static_cast<int>(std::ceil(storm.region_fraction * num_sources)));
  const bool in_region = source_index < width;
  switch (storm.kind) {
    case StormKind::kNone:
      break;
    case StormKind::kRegionOutage: {
      if (!in_region) break;
      if (storm.lethal) {
        const int64_t at = TupleIndexAt(storm.onset, start, mean_delay_ns);
        if (at < cardinality) {
          FaultSpec spec;
          spec.kind = FaultKind::kDeath;
          spec.at_tuple = at;
          schedule.events.push_back(spec);
        }
        break;
      }
      const SimDuration len = static_cast<SimDuration>(
          static_cast<double>(storm.outage) * JitterScale(storm.jitter, rng));
      AppendWindow(&schedule.events, start, mean_delay_ns, cardinality,
                   storm.onset, len);
      break;
    }
    case StormKind::kCascadingSlowdown: {
      // The wave sweeps the whole population: source i is hit
      // propagation later than source i-1, `waves` times over.
      const SimTime first =
          storm.onset + static_cast<SimDuration>(source_index) *
                            storm.propagation;
      for (int w = 0; w < storm.waves; ++w) {
        const SimTime from =
            first + static_cast<SimDuration>(w) *
                        (storm.wave_stall + storm.propagation);
        const SimDuration len = static_cast<SimDuration>(
            static_cast<double>(storm.wave_stall) *
            JitterScale(storm.jitter, rng));
        AppendWindow(&schedule.events, start, mean_delay_ns, cardinality,
                     from, len);
      }
      break;
    }
    case StormKind::kFlapping: {
      if (!in_region) break;
      for (int k = 0; k < storm.flaps; ++k) {
        const SimTime from =
            storm.onset + static_cast<SimDuration>(2 * k) * storm.flap_period;
        const SimDuration len = static_cast<SimDuration>(
            static_cast<double>(storm.flap_period) *
            JitterScale(storm.jitter, rng));
        AppendWindow(&schedule.events, start, mean_delay_ns, cardinality,
                     from, len);
      }
      break;
    }
  }
  return schedule;
}

FaultModel::FaultModel(FaultSchedule schedule, uint64_t seed)
    : schedule_(std::move(schedule)), rng_(seed) {}

FaultAction FaultModel::OnProduce(int64_t index) {
  FaultAction action;
  if (cursor_ >= schedule_.events.size()) return action;
  const FaultSpec& e = schedule_.events[cursor_];
  if (index < e.at_tuple) return action;
  ++cursor_;
  switch (e.kind) {
    case FaultKind::kStall:
      action.extra_silence = e.stall;
      ++stats_.stalls;
      break;
    case FaultKind::kDisconnect: {
      // The outage is the sum of the waits before each reconnect attempt:
      // failed_attempts failures plus the attempt that succeeds, each
      // doubling the previous backoff and jittered deterministically.
      SimDuration outage = 0;
      SimDuration backoff = e.backoff_initial;
      for (int64_t a = 0; a <= e.failed_attempts; ++a) {
        const double scale =
            1.0 + e.backoff_jitter * (2.0 * rng_.NextDouble() - 1.0);
        outage += static_cast<SimDuration>(
            static_cast<double>(backoff) * scale);
        backoff *= 2;
      }
      action.extra_silence = outage;
      action.replay_from_scratch = e.replay_from_scratch;
      ++stats_.disconnects;
      ++stats_.reconnects;
      if (e.replay_from_scratch) stats_.duplicates_scheduled += index;
      break;
    }
    case FaultKind::kDeath:
      action.die = true;
      stats_.died = true;
      break;
  }
  stats_.silence += action.extra_silence;
  return action;
}

}  // namespace dqsched::wrapper
