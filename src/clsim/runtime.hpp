#ifndef HPLREPRO_CLSIM_RUNTIME_HPP
#define HPLREPRO_CLSIM_RUNTIME_HPP

/// \file runtime.hpp
/// The clsim host API: RAII C++ objects mirroring the OpenCL 1.x host
/// object model — Platform, Device, Context, Buffer, Program, Kernel,
/// CommandQueue, Event. The OpenCL-style baseline benchmarks are written
/// against this API with kernel source strings, exactly as a hand-written
/// OpenCL program would be (minus the C error-code plumbing).
///
/// Execution is asynchronous, as on a real OpenCL device: each queue owns
/// a dedicated worker thread that drains its commands in order, so
/// enqueue_* returns immediately and finish()/Event::wait() genuinely
/// block. "Device time" is simulated by the timing model and accumulated
/// per queue at drain time (the simulated timeline is therefore
/// deterministic regardless of host scheduling), while Events expose
/// per-command profiling information (the analogue of
/// CL_QUEUE_PROFILING_ENABLE). Setting HPL_SYNC=1 in the environment — or
/// calling set_async_enabled(false) — makes every enqueue wait for its
/// command before returning, which is useful for debugging; commands take
/// the same code path either way, so results and simulated timestamps are
/// bit-identical between the two modes.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "clc/bytecode.hpp"
#include "clc/compile.hpp"
#include "clsim/device.hpp"
#include "clsim/executor.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace hplrepro::clsim {

class RuntimeError : public Error {
public:
  explicit RuntimeError(const std::string& what)
      : Error("clsim: " + what) {}
};

/// Whether enqueued commands execute asynchronously on the queue's worker
/// thread (the default) or every enqueue waits for its command to complete
/// before returning. The first query reads HPL_SYNC from the environment
/// (HPL_SYNC=1 selects synchronous mode, the debugging escape hatch).
bool async_enabled();

/// Overrides the HPL_SYNC-derived default (tests and benchmarks compare
/// the two modes within one process).
void set_async_enabled(bool on);

class Context;
class Buffer;
class Program;
class Kernel;
class CommandQueue;

/// A device in the simulated platform. Cheap value type (shared impl).
class Device {
public:
  const DeviceSpec& spec() const { return *spec_; }
  const std::string& name() const { return spec_->name; }
  DeviceType type() const { return spec_->type; }
  bool supports_double() const { return spec_->supports_double; }

  bool operator==(const Device& other) const { return spec_ == other.spec_; }

private:
  friend class Platform;
  explicit Device(std::shared_ptr<const DeviceSpec> spec)
      : spec_(std::move(spec)) {}
  std::shared_ptr<const DeviceSpec> spec_;
};

/// The simulated OpenCL platform. Exposes the device catalog (Tesla,
/// Quadro, Xeon) plus any devices registered by tests.
class Platform {
public:
  /// The process-wide platform instance.
  static Platform& get();

  const std::vector<Device>& devices() const { return devices_; }

  /// First device of the given type; nullopt if none.
  std::optional<Device> device_by_type(DeviceType type) const;

  /// First device that is not a CPU (HPL's default device rule), falling
  /// back to the first device.
  Device default_accelerator() const;

  /// Finds a device by (sub)name, e.g. "Tesla" or "Quadro".
  std::optional<Device> device_by_name(const std::string& needle) const;

  /// Registers an additional simulated device (tests, experiments).
  /// Throws InvalidArgument unless spec.warp_size and spec.segment_bytes
  /// are powers of two.
  Device register_device(const DeviceSpec& spec);

  /// Host thread pool shared by all simulated devices.
  hplrepro::ThreadPool& pool() { return pool_; }

private:
  Platform();
  std::vector<Device> devices_;
  hplrepro::ThreadPool pool_;
};

/// An OpenCL-like context bound to one device.
class Context {
public:
  explicit Context(Device device) : device_(std::move(device)) {}
  const Device& device() const { return device_; }

private:
  Device device_;
};

enum class MemFlags : std::uint32_t {
  ReadWrite = 0,
  ReadOnly = 1,
  WriteOnly = 2,
};

/// A device buffer (simulated: host-side storage owned by the buffer).
/// As with real clCreateBuffer, the contents are undefined until written.
class Buffer {
public:
  Buffer(Context& context, std::size_t bytes,
         MemFlags flags = MemFlags::ReadWrite);

  std::size_t size() const { return storage_->size; }
  MemFlags flags() const { return storage_->flags; }

  /// Direct access to the simulated device storage. Bypasses the queue's
  /// simulated transfer accounting; tests use it for verification.
  std::byte* raw() { return storage_->data.get(); }
  const std::byte* raw() const { return storage_->data.get(); }

  /// Zero-fills the storage (testing convenience; real OpenCL would use
  /// clEnqueueFillBuffer).
  void fill_zero();

private:
  friend class CommandQueue;
  friend class Kernel;
  struct Storage {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    MemFlags flags = MemFlags::ReadWrite;
  };
  std::shared_ptr<Storage> storage_;
};

/// A program: OpenCL C source compiled for the context's device by the
/// clc compiler (the simulated vendor compiler).
class Program {
public:
  Program(Context& context, std::string source);

  /// Compiles the source with clBuildProgram-style `options` (e.g.
  /// "-cl-opt-disable"; empty means the default, optimizing build).
  /// Throws RuntimeError on failure — including unrecognised options; the
  /// build log is available either way, as with clBuildProgram.
  void build(const std::string& options = "");
  bool built() const { return module_ != nullptr; }
  const std::string& build_log() const { return build_log_; }
  const std::string& source() const { return source_; }
  const std::string& build_options() const { return build_options_; }

  /// What the optimizer did during the last successful build.
  const clc::OptReport& opt_report() const { return opt_report_; }

  const clc::Module& module() const;
  /// Shared ownership of the built module. Kernels (and the commands
  /// enqueued from them) retain it, so a pending launch stays valid even
  /// if the Program is destroyed before the queue drains.
  std::shared_ptr<const clc::Module> module_ptr() const;
  const Device& device() const { return device_; }

private:
  Device device_;
  std::string source_;
  std::string build_options_;
  std::shared_ptr<const clc::Module> module_;
  std::string build_log_;
  clc::OptReport opt_report_;
};

/// A kernel handle plus its bound arguments (clSetKernelArg analogue).
class Kernel {
public:
  Kernel(Program& program, const std::string& name);

  const std::string& name() const { return fn_->name; }
  std::size_t num_args() const { return fn_->params.size(); }

  /// Declared type of parameter `index` (introspection for the C API).
  const clc::Type& param_type(unsigned index) const;

  void set_arg(unsigned index, const Buffer& buffer);

  /// Dynamically sized __local argument (OpenCL's
  /// clSetKernelArg(kernel, i, bytes, NULL)): the runtime reserves `bytes`
  /// of per-group scratchpad and passes its address to the kernel.
  void set_arg_local(unsigned index, std::size_t bytes);

  /// Scalar argument; converted to the parameter's declared type.
  void set_arg(unsigned index, double value);
  void set_arg(unsigned index, float value);
  void set_arg(unsigned index, std::int32_t value);
  void set_arg(unsigned index, std::uint32_t value);
  void set_arg(unsigned index, std::int64_t value);
  void set_arg(unsigned index, std::uint64_t value);

private:
  friend class CommandQueue;
  struct LocalAlloc {
    std::size_t bytes = 0;
  };
  using ArgSlot =
      std::variant<std::monostate, std::shared_ptr<Buffer::Storage>,
                   clc::Value, LocalAlloc>;

  void set_scalar(unsigned index, double as_double, std::int64_t as_int,
                  bool from_float);

  std::shared_ptr<const clc::Module> module_;  // keeps fn_ alive
  const clc::CompiledFunction* fn_;
  std::vector<ArgSlot> args_;
};

/// A shared, thread-safe handle to one enqueued command (the analogue of
/// cl_event). Events progress through the OpenCL status lifecycle
/// Queued -> Submitted -> Running -> Complete; wait() blocks until
/// Complete and rethrows any execution error (e.g. a VM trap).
///
/// Profiling accessors expose the command's position on the queue's
/// simulated timeline (the analogue of the four CL_PROFILING_COMMAND_*
/// timestamps under CL_QUEUE_PROFILING_ENABLE). Timestamps are simulated
/// seconds since the queue's creation and obey
/// queued() <= submitted() <= started() <= ended(), with
/// ended() - started() == sim_seconds(). Profiling data exists only once
/// the command completes, so every profiling accessor wait()s first.
///
/// Copies share state; a default-constructed Event is a complete no-op
/// command with zeroed profiling data.
class Event {
public:
  enum class Status { Queued, Submitted, Running, Complete };

  Event();

  /// Current lifecycle status (non-blocking).
  Status status() const;
  bool complete() const { return status() == Status::Complete; }

  /// Blocks until the command completes. Rethrows the command's execution
  /// error, if any (enqueue-time validation errors still throw from
  /// enqueue_* itself).
  void wait() const;

  /// Registers `fn` to run when the command completes (on the queue worker
  /// thread), or immediately on this thread if it already has. Callbacks
  /// are not invoked for commands that failed.
  void on_complete(std::function<void(const Event&)> fn);

  /// Like on_complete, but `fn` also runs for commands that failed, with
  /// `failed` set. Profiling accessors on a failed event rethrow its
  /// error, so callbacks must consult `failed` before reading them.
  void on_settled(std::function<void(const Event&, bool failed)> fn);

  // Profiling accessors; each waits for completion first.
  double sim_seconds() const;
  const clc::ExecStats& stats() const;
  const TimingBreakdown& timing() const;
  double wall_seconds() const;

  double queued() const;
  double submitted() const;
  double started() const;
  double ended() const;

  /// Host wall-clock window (trace-epoch microseconds) during which the
  /// command actually executed on its queue worker. Used to observe real
  /// overlap between queues; waits for completion first.
  double host_started_us() const;
  double host_ended_us() const;

private:
  friend class CommandQueue;
  struct State {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    Status status = Status::Complete;
    std::exception_ptr error;
    std::vector<std::function<void(const Event&)>> callbacks;
    std::vector<std::function<void(const Event&, bool)>> settled_callbacks;
    // Profiling payload: written by the queue worker before status flips
    // to Complete, immutable afterwards.
    double sim_seconds = 0;
    double wall_seconds = 0;
    double queued_s = 0;
    double submit_s = 0;
    double start_s = 0;
    double end_s = 0;
    double host_start_us = 0;
    double host_end_us = 0;
    clc::ExecStats stats;
    TimingBreakdown timing;
  };
  explicit Event(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// An in-order command queue backed by a dedicated worker thread: every
/// enqueue_* validates its arguments, appends a command and returns
/// immediately with an Event; the worker drains commands strictly in
/// enqueue order (waiting out each command's wait-list first), executes
/// them, and stamps their simulated timestamps at drain time — so the
/// simulated per-device timeline is deterministic no matter how host
/// threads interleave. finish() genuinely blocks until the queue is empty.
///
/// Errors raised during deferred execution (VM traps) are stored on the
/// Event and rethrown by Event::wait(); finish() rethrows the first such
/// error of the queue. Argument and launch-geometry validation happens at
/// enqueue time and throws synchronously.
class CommandQueue {
public:
  explicit CommandQueue(Context& context);
  /// Drains outstanding commands, then joins the worker. Pending errors
  /// are swallowed (call finish() first to observe them).
  ~CommandQueue();

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  const Device& device() const { return device_; }

  Event enqueue_write_buffer(Buffer& buffer, const void* src,
                             std::size_t bytes, std::size_t offset = 0,
                             std::vector<Event> wait_list = {});
  Event enqueue_read_buffer(const Buffer& buffer, void* dst,
                            std::size_t bytes, std::size_t offset = 0,
                            std::vector<Event> wait_list = {});

  /// Device-to-device (or same-device) copy, the clEnqueueCopyBuffer
  /// analogue. Runs on THIS queue — by convention the source device's —
  /// and is billed one transfer on its simulated interconnect. The
  /// co-execution merge step uses it to reconcile disjoint written
  /// regions without a host round-trip.
  Event enqueue_copy_buffer(const Buffer& src, Buffer& dst,
                            std::size_t bytes, std::size_t src_offset = 0,
                            std::size_t dst_offset = 0,
                            std::vector<Event> wait_list = {});

  /// Launches a kernel over `global` work-items. Passing no `local` lets
  /// the runtime pick one (OpenCL's NULL local size). Arguments are
  /// snapshotted at enqueue time, so the kernel object may be re-armed for
  /// the next launch immediately. A `slice` narrows execution to a run of
  /// work-groups along one dimension (co-execution splits); work-items
  /// still observe the full launch geometry.
  Event enqueue_ndrange_kernel(Kernel& kernel, const NDRange& global,
                               std::optional<NDRange> local = std::nullopt,
                               std::vector<Event> wait_list = {},
                               std::optional<LaunchSlice> slice = std::nullopt);

  /// Blocks until all enqueued commands (and their completion callbacks)
  /// have finished, then rethrows the first deferred execution error, if
  /// any (clearing it).
  void finish();

  /// Forgets the queue's sticky first-error if it is the one carried by
  /// `event`, whose wait() already surfaced it to the caller — so finish()
  /// does not report the same failure a second time. Errors belonging to
  /// other commands are left in place.
  void consume_error(const Event& event);

  /// Total simulated device seconds accumulated by this queue. Reflects
  /// completed commands only; call finish() first for a quiescent value.
  double simulated_seconds() const;
  /// Sum over kernel launches only (excluding transfers).
  double simulated_kernel_seconds() const;
  /// Host wall-clock spent executing this queue's commands (simulation
  /// cost).
  double wall_seconds() const;

  /// finish()es, then zeroes the simulated clock and wall counters.
  void reset_timers();

private:
  struct Command {
    /// Executes the command, filling the profiling payload (sim_seconds,
    /// wall_seconds, stats, timing) of `state`.
    std::function<void(Event::State&)> run;
    std::shared_ptr<Event::State> state;
    std::vector<Event> wait_list;
    std::string label;
    const char* cat = "";
    bool is_kernel = false;
    double enqueue_us = 0;  // host trace clock at enqueue
  };

  /// Posts `cmd` to the worker; in synchronous mode also finish()es.
  Event submit(Command cmd);
  /// Worker-side: waits the wait-list, runs the command, stamps simulated
  /// timestamps, records trace events and publishes completion.
  void execute(Command& cmd);

  Device device_;
  mutable std::mutex mutex_;  // guards timers and first_error_
  double sim_seconds_ = 0;
  double sim_kernel_seconds_ = 0;
  double wall_seconds_ = 0;
  std::exception_ptr first_error_;
  // Metrics handles, resolved once at construction so the worker never
  // touches the registry. Queues on the same device share them by name.
  metrics::Gauge* depth_gauge_;
  metrics::Gauge* util_gauge_;
  metrics::Counter* busy_counter_;
  metrics::Histogram* dwell_queued_;
  metrics::Histogram* dwell_wait_;
  metrics::Histogram* dwell_run_;
  double created_us_ = 0;   // trace clock at construction (for utilization)
  double busy_us_ = 0;      // worker-thread-only running total
  // Declared last so it stops (draining any queued commands that touch
  // the members above) before they are destroyed.
  hplrepro::SerialWorker worker_;
};

}  // namespace hplrepro::clsim

#endif  // HPLREPRO_CLSIM_RUNTIME_HPP
