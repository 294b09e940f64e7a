// The one stream-progress core (paper §5): the simulator, the numeric executor and the
// validator all walk a plan's per-device instruction streams here, so they share one visit
// order and one wait rule.
#ifndef DCP_RUNTIME_STREAM_PROGRESS_H_
#define DCP_RUNTIME_STREAM_PROGRESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/instructions.h"

namespace dcp {

// CommLaunch instructions in both of `plan`'s streams on every device. The compiler
// numbers transfers from 0, so every transfer id of a valid plan lies below this.
inline size_t CountLaunches(const BatchPlan& plan) {
  size_t launches = 0;
  for (const DevicePlan& dev : plan.devices) {
    for (const auto* stream : {&dev.instructions, &dev.backward_instructions}) {
      for (const Instruction& instr : *stream) {
        launches += instr.kind == InstrKind::kCommLaunch ? 1 : 0;
      }
    }
  }
  return launches;
}

// Calls step(device, instr, transfer) for each instruction of `plan`'s forward (or
// backward) streams, in rounds over devices 0..n-1: a device runs until its stream ends or
// it reaches a CommWait that is not ready. The one wait rule: a CommWait is ready once both
// CommLaunches (send and recv) of its transfer have run; nothing else blocks. `transfer` is
// this run's value-initialised Transfer for the instruction's transfer id (null for
// compute). Returns INVALID_ARGUMENT, with no further step, when an id is outside [0, the
// plan's launch count), when a transfer launches a second send or recv, or when no device
// can progress; that message names each blocked device, its stream position and transfer.
template <typename Transfer, typename Step>
Status RunStreams(const BatchPlan& plan, bool backward, Step&& step) {
  const size_t launches = CountLaunches(plan);
  constexpr uint8_t kSent = 1, kReceived = 2;
  std::vector<uint8_t> ends(launches, 0);  // kSent | kReceived, per transfer id.
  std::vector<Transfer> transfers(launches);
  std::vector<size_t> pc(plan.devices.size(), 0);
  auto stream_of = [&](DeviceId d) -> const std::vector<Instruction>& {
    const DevicePlan& dev = plan.devices[static_cast<size_t>(d)];
    return backward ? dev.backward_instructions : dev.instructions;
  };
  auto error = [&](DeviceId d, int32_t id, const std::string& what) {
    return Status::InvalidArgument("transfer " + std::to_string(id) + what + " on device " +
                                   std::to_string(d) + " (backward=" +
                                   std::to_string(backward) + ")");
  };
  for (bool finished = false; !finished;) {
    bool progress = false;
    finished = true;
    for (DeviceId d = 0; d < plan.num_devices(); ++d) {
      const std::vector<Instruction>& stream = stream_of(d);
      size_t& at = pc[static_cast<size_t>(d)];
      for (; at < stream.size(); ++at) {
        const Instruction& instr = stream[at];
        const bool wait = instr.kind == InstrKind::kCommWait;
        const bool comm = wait || instr.kind == InstrKind::kCommLaunch;
        const auto id = static_cast<size_t>(instr.transfer_id);
        if (comm && (instr.transfer_id < 0 || id >= launches)) {
          return error(d, instr.transfer_id, " is outside [0, " + std::to_string(launches) +
                                                 "), the plan's launch count,");
        }
        if (wait && ends[id] != (kSent | kReceived)) {
          break;
        }
        if (comm && !wait) {
          const uint8_t side = instr.is_send ? kSent : kReceived;
          if ((ends[id] & side) != 0) {
            return error(d, instr.transfer_id,
                         instr.is_send ? " launches a second send" : " launches a second recv");
          }
          ends[id] |= side;
        }
        step(d, instr, comm ? &transfers[id] : nullptr);
        progress = true;
      }
      finished = finished && at == stream.size();
    }
    if (!finished && !progress) {
      std::string message = "deadlock (backward=" + std::to_string(backward) +
                            "): no device can make progress;";
      for (DeviceId d = 0; d < plan.num_devices(); ++d) {
        const size_t at = pc[static_cast<size_t>(d)];
        if (at < stream_of(d).size()) {
          const int32_t id = stream_of(d)[at].transfer_id;
          const uint8_t e = ends[static_cast<size_t>(id)];
          message += " device " + std::to_string(d) + " at instruction " +
                     std::to_string(at) + " waits on transfer " + std::to_string(id) +
                     " (send " + ((e & kSent) != 0 ? "" : "not ") + "launched, recv " +
                     ((e & kReceived) != 0 ? "" : "not ") + "launched);";
        }
      }
      message.pop_back();
      return Status::InvalidArgument(std::move(message));
    }
  }
  return Status::Ok();
}

}  // namespace dcp

#endif  // DCP_RUNTIME_STREAM_PROGRESS_H_
