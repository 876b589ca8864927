#include "sim/cost_model.h"

namespace dqsched::sim {

SimDuration CostModel::TupleIoTime() const {
  const double per_page =
      static_cast<double>(PageTransferTime()) +
      static_cast<double>(DiskPositionTime()) / disk_chunk_pages +
      static_cast<double>(InstrTime(instr_per_io));
  return static_cast<SimDuration>(per_page / TuplesPerPage());
}

SimDuration CostModel::MinWaitingTime() const {
  // Source-side sequential read (transfer only; the source amortizes its
  // positioning over a full relation scan) + time on the wire + the
  // source-side share of the per-message CPU cost.
  const double read =
      static_cast<double>(PageTransferTime()) / TuplesPerPage();
  const double wire = static_cast<double>(NetworkTupleTime());
  const double msg =
      static_cast<double>(InstrTime(instr_per_message)) / tuples_per_message;
  return static_cast<SimDuration>(read + wire + msg);
}

// The floating-point checks are written so that NaN fails them.
Status CostModel::Validate() const {
  if (!(cpu_mips > 0)) return Status::InvalidArgument("cpu_mips must be > 0");
  if (!(disk_transfer_mb_s > 0)) {
    return Status::InvalidArgument("disk_transfer_mb_s must be > 0");
  }
  if (!(network_mb_s > 0)) {
    return Status::InvalidArgument("network_mb_s must be > 0");
  }
  if (tuple_size_bytes <= 0 || page_size_bytes <= 0) {
    return Status::InvalidArgument("tuple/page sizes must be > 0");
  }
  if (page_size_bytes < tuple_size_bytes) {
    return Status::InvalidArgument("page must hold at least one tuple");
  }
  if (tuples_per_message <= 0) {
    return Status::InvalidArgument("tuples_per_message must be > 0");
  }
  if (disk_chunk_pages <= 0) {
    return Status::InvalidArgument("disk_chunk_pages must be > 0");
  }
  if (io_cache_pages < 0 || num_disks <= 0) {
    return Status::InvalidArgument("io_cache_pages/num_disks invalid");
  }
  if (!(disk_latency_ms >= 0) || !(disk_seek_ms >= 0)) {
    return Status::InvalidArgument("disk positioning times must be >= 0");
  }
  if (instr_per_io < 0 || instr_move_tuple < 0 || instr_hash_probe < 0 ||
      instr_produce_result < 0 || instr_per_message < 0 ||
      instr_hash_insert < 0) {
    return Status::InvalidArgument("instruction costs must be >= 0");
  }
  return Status::Ok();
}

}  // namespace dqsched::sim
