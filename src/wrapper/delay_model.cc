#include "wrapper/delay_model.h"

#include "common/macros.h"

namespace dqsched::wrapper {

const char* DelayKindName(DelayKind kind) {
  switch (kind) {
    case DelayKind::kConstant:
      return "constant";
    case DelayKind::kUniform:
      return "uniform";
    case DelayKind::kInitial:
      return "initial";
    case DelayKind::kBursty:
      return "bursty";
    case DelayKind::kSlow:
      return "slow";
  }
  return "unknown";
}

// Each check is written so that NaN fails it: the models cast these
// values to integer nanoseconds.
Status DelayConfig::Validate() const {
  if (!(mean_us >= 0)) return Status::InvalidArgument("mean_us must be >= 0");
  if (!(initial_delay_ms >= 0)) {
    return Status::InvalidArgument("initial_delay_ms must be >= 0");
  }
  if (kind == DelayKind::kBursty && burst_length <= 0) {
    return Status::InvalidArgument("burst_length must be > 0");
  }
  if (!(burst_gap_ms >= 0)) {
    return Status::InvalidArgument("burst_gap_ms must be >= 0");
  }
  if (kind == DelayKind::kSlow && !(slow_factor >= 1.0)) {
    return Status::InvalidArgument("slow_factor must be >= 1");
  }
  // Every duration the models cast must fit a nanosecond SimDuration.
  if (!FitsInt64(mean_us * 1e3)) {
    return Status::InvalidArgument("mean_us overflows 64-bit nanoseconds");
  }
  if (!FitsInt64(initial_delay_ms * 1e6)) {
    return Status::InvalidArgument(
        "initial_delay_ms overflows 64-bit nanoseconds");
  }
  if (!FitsInt64(burst_gap_ms * 1e6)) {
    return Status::InvalidArgument(
        "burst_gap_ms overflows 64-bit nanoseconds");
  }
  if (kind == DelayKind::kSlow && !FitsInt64(mean_us * slow_factor * 1e3)) {
    return Status::InvalidArgument(
        "mean_us x slow_factor overflows 64-bit nanoseconds");
  }
  return Status::Ok();
}

namespace {

class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(double mean_us) : delay_(Microseconds(mean_us)) {}
  SimDuration NextDelay(int64_t, Rng&) override { return delay_; }
  double MeanDelayNs() const override { return static_cast<double>(delay_); }

 private:
  SimDuration delay_;
};

class UniformDelay final : public DelayModel {
 public:
  explicit UniformDelay(double mean_us) : mean_ns_(mean_us * 1e3) {}
  SimDuration NextDelay(int64_t, Rng& rng) override {
    return static_cast<SimDuration>(rng.UniformZeroToTwice(mean_ns_));
  }
  double MeanDelayNs() const override { return mean_ns_; }

 private:
  double mean_ns_;
};

class InitialDelay final : public DelayModel {
 public:
  InitialDelay(double initial_ms, double mean_us)
      : initial_ns_(initial_ms * 1e6), mean_ns_(mean_us * 1e3) {}
  SimDuration NextDelay(int64_t index, Rng& rng) override {
    const double base = rng.UniformZeroToTwice(mean_ns_);
    return static_cast<SimDuration>(index == 0 ? base + initial_ns_ : base);
  }
  double MeanDelayNs() const override { return mean_ns_; }
  double ExpectedTotalNs(int64_t n) const override {
    return n == 0 ? 0.0 : initial_ns_ + static_cast<double>(n) * mean_ns_;
  }

 private:
  double initial_ns_;
  double mean_ns_;
};

class BurstyDelay final : public DelayModel {
 public:
  BurstyDelay(int64_t burst_length, double gap_ms, double mean_us)
      : burst_length_(burst_length),
        gap_ns_(gap_ms * 1e6),
        mean_ns_(mean_us * 1e3) {}
  SimDuration NextDelay(int64_t index, Rng& rng) override {
    const double base = rng.UniformZeroToTwice(mean_ns_);
    if (index > 0 && index % burst_length_ == 0) {
      return static_cast<SimDuration>(base + rng.Exponential(gap_ns_));
    }
    return static_cast<SimDuration>(base);
  }
  double MeanDelayNs() const override {
    // Mean over one burst period: (burst_length-1 normal gaps + one long).
    return mean_ns_ + gap_ns_ / static_cast<double>(burst_length_);
  }

 private:
  int64_t burst_length_;
  double gap_ns_;
  double mean_ns_;
};

}  // namespace

std::unique_ptr<DelayModel> MakeDelayModel(const DelayConfig& config) {
  DQS_CHECK_MSG(config.Validate().ok(), "invalid DelayConfig: %s",
                config.Validate().ToString().c_str());
  switch (config.kind) {
    case DelayKind::kConstant:
      return std::make_unique<ConstantDelay>(config.mean_us);
    case DelayKind::kUniform:
      return std::make_unique<UniformDelay>(config.mean_us);
    case DelayKind::kInitial:
      return std::make_unique<InitialDelay>(config.initial_delay_ms,
                                            config.mean_us);
    case DelayKind::kBursty:
      return std::make_unique<BurstyDelay>(config.burst_length,
                                           config.burst_gap_ms,
                                           config.mean_us);
    case DelayKind::kSlow:
      return std::make_unique<UniformDelay>(config.mean_us *
                                            config.slow_factor);
  }
  DQS_CHECK_MSG(false, "unreachable delay kind");
  return nullptr;
}

}  // namespace dqsched::wrapper
