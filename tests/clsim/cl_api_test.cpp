// The C-style OpenCL host API layer: happy path end to end, plus the
// error-code behaviour real OpenCL programs rely on.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "clsim/cl_api.hpp"
#include "clsim/runtime.hpp"

namespace {

TEST(ClApi, PlatformAndDeviceDiscovery) {
  cl_uint num_platforms = 0;
  ASSERT_EQ(clGetPlatformIDs(0, nullptr, &num_platforms), CL_SUCCESS);
  ASSERT_EQ(num_platforms, 1u);

  cl_platform_id platform;
  ASSERT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);

  cl_uint num_gpus = 0;
  ASSERT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 0, nullptr,
                           &num_gpus),
            CL_SUCCESS);
  EXPECT_EQ(num_gpus, 2u);  // Tesla + Quadro

  cl_uint num_cpus = 0;
  ASSERT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 0, nullptr,
                           &num_cpus),
            CL_SUCCESS);
  EXPECT_EQ(num_cpus, 1u);

  cl_device_id gpu;
  ASSERT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &gpu, nullptr),
            CL_SUCCESS);
  char name[128];
  ASSERT_EQ(clGetDeviceInfo(gpu, CL_DEVICE_NAME, sizeof(name), name, nullptr),
            CL_SUCCESS);
  EXPECT_NE(std::string(name).find("Tesla"), std::string::npos);
}

TEST(ClApi, EndToEndVectorAdd) {
  const char* src = R"(
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c) {
  size_t i = get_global_id(0);
  c[i] = a[i] + b[i];
}
)";
  cl_int err;
  cl_platform_id platform;
  ASSERT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);
  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, nullptr),
            CL_SUCCESS);

  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_command_queue queue = clCreateCommandQueue(context, device, 0, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  constexpr std::size_t n = 256;
  std::vector<float> a(n, 2.0f), b(n, 3.0f), c(n, 0.0f);

  cl_mem a_buf = clCreateBuffer(context, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR,
                                n * 4, a.data(), &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_mem b_buf = clCreateBuffer(context, CL_MEM_READ_ONLY, n * 4, nullptr,
                                &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_mem c_buf = clCreateBuffer(context, CL_MEM_WRITE_ONLY, n * 4, nullptr,
                                &err);
  ASSERT_EQ(err, CL_SUCCESS);

  ASSERT_EQ(clEnqueueWriteBuffer(queue, b_buf, CL_TRUE, 0, n * 4, b.data(), 0,
                                 nullptr, nullptr),
            CL_SUCCESS);

  cl_program program =
      clCreateProgramWithSource(context, 1, &src, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 1, &device, nullptr, nullptr, nullptr),
            CL_SUCCESS);

  cl_kernel kernel = clCreateKernel(program, "vadd", &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &a_buf), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 1, sizeof(cl_mem), &b_buf), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 2, sizeof(cl_mem), &c_buf), CL_SUCCESS);

  const std::size_t global = n;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clFinish(queue), CL_SUCCESS);
  ASSERT_EQ(clEnqueueReadBuffer(queue, c_buf, CL_TRUE, 0, n * 4, c.data(), 0,
                                nullptr, nullptr),
            CL_SUCCESS);

  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(c[i], 5.0f) << i;

  EXPECT_EQ(clReleaseKernel(kernel), CL_SUCCESS);
  EXPECT_EQ(clReleaseProgram(program), CL_SUCCESS);
  EXPECT_EQ(clReleaseMemObject(a_buf), CL_SUCCESS);
  EXPECT_EQ(clReleaseMemObject(b_buf), CL_SUCCESS);
  EXPECT_EQ(clReleaseMemObject(c_buf), CL_SUCCESS);
  EXPECT_EQ(clReleaseCommandQueue(queue), CL_SUCCESS);
  EXPECT_EQ(clReleaseContext(context), CL_SUCCESS);
}

TEST(ClApi, BuildFailureReturnsCodeAndLog) {
  const char* bad_src = "__kernel void k(__global int* o) { o[0] = nope; }";
  cl_int err;
  cl_platform_id platform;
  clGetPlatformIDs(1, &platform, nullptr);
  cl_device_id device;
  clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, nullptr);
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  cl_program program =
      clCreateProgramWithSource(context, 1, &bad_src, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  EXPECT_EQ(clBuildProgram(program, 1, &device, nullptr, nullptr, nullptr),
            CL_BUILD_PROGRAM_FAILURE);

  char log[4096] = {0};
  EXPECT_EQ(clGetProgramBuildInfo(program, device, CL_PROGRAM_BUILD_LOG,
                                  sizeof(log), log, nullptr),
            CL_SUCCESS);
  EXPECT_NE(std::string(log).find("undeclared identifier"),
            std::string::npos);

  // Kernel creation from an unbuilt program must fail.
  cl_kernel kernel = clCreateKernel(program, "k", &err);
  EXPECT_EQ(kernel, nullptr);
  EXPECT_EQ(err, CL_INVALID_PROGRAM_EXECUTABLE);

  clReleaseProgram(program);
  clReleaseContext(context);
}

TEST(ClApi, BuildOptionsAcceptedAndValidated) {
  const char* src = "__kernel void k(__global int* o) { o[0] = 2 * 21; }";
  cl_int err;
  cl_platform_id platform;
  clGetPlatformIDs(1, &platform, nullptr);
  cl_device_id device;
  clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, nullptr);
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  cl_program program =
      clCreateProgramWithSource(context, 1, &src, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  // Unknown options are rejected up front, before any compilation. The
  // removed work-item-loop switch is unknown too.
  for (const char* options : {"-fbogus", "-cl-wg-loops=off"}) {
    EXPECT_EQ(clBuildProgram(program, 1, &device, options, nullptr, nullptr),
              CL_INVALID_BUILD_OPTIONS)
        << options;
  }

  // Real driver options select the optimization level.
  EXPECT_EQ(clBuildProgram(program, 1, &device, "-cl-opt-disable", nullptr,
                           nullptr),
            CL_SUCCESS);
  EXPECT_EQ(clBuildProgram(program, 1, &device, "-cl-mad-enable -O2",
                           nullptr, nullptr),
            CL_SUCCESS);

  clReleaseProgram(program);
  clReleaseContext(context);
}

TEST(ClApi, ErrorCodesOnMisuse) {
  EXPECT_EQ(clGetPlatformIDs(0, nullptr, nullptr), CL_INVALID_VALUE);
  EXPECT_EQ(clFinish(nullptr), CL_INVALID_COMMAND_QUEUE);
  EXPECT_EQ(clReleaseMemObject(nullptr), CL_INVALID_MEM_OBJECT);

  cl_int err;
  cl_platform_id platform;
  clGetPlatformIDs(1, &platform, nullptr);
  cl_device_id device;
  clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, nullptr);
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);

  // Zero-sized buffer.
  cl_mem bad = clCreateBuffer(context, CL_MEM_READ_WRITE, 0, nullptr, &err);
  EXPECT_EQ(bad, nullptr);
  EXPECT_EQ(err, CL_INVALID_BUFFER_SIZE);

  // Kernel with a wrong name.
  const char* src = "__kernel void real(__global int* o) { o[0] = 1; }";
  cl_program program =
      clCreateProgramWithSource(context, 1, &src, nullptr, &err);
  clBuildProgram(program, 1, &device, nullptr, nullptr, nullptr);
  cl_kernel kernel = clCreateKernel(program, "fake", &err);
  EXPECT_EQ(kernel, nullptr);
  EXPECT_EQ(err, CL_INVALID_KERNEL_NAME);

  clReleaseProgram(program);
  clReleaseContext(context);
}

TEST(ClApi, KernelArgNegativePaths) {
  const char* src = R"(
__kernel void scale(__global float* x, float factor) {
  size_t i = get_global_id(0);
  x[i] = factor * x[i];
}
)";
  cl_int err;
  cl_platform_id platform;
  ASSERT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);
  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, nullptr),
            CL_SUCCESS);
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_program program =
      clCreateProgramWithSource(context, 1, &src, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 1, &device, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "scale", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  float factor = 2.0f;
  // Index past the last parameter (the kernel has args 0 and 1).
  EXPECT_EQ(clSetKernelArg(kernel, 2, sizeof(factor), &factor),
            CL_INVALID_ARG_INDEX);
  EXPECT_EQ(clSetKernelArg(kernel, 99, sizeof(factor), &factor),
            CL_INVALID_ARG_INDEX);
  // A size no scalar type has.
  EXPECT_EQ(clSetKernelArg(kernel, 1, 3, &factor), CL_INVALID_ARG_SIZE);
  // NULL value with zero size describes no argument at all.
  EXPECT_EQ(clSetKernelArg(kernel, 1, 0, nullptr), CL_INVALID_ARG_SIZE);
  // The failures above must not have corrupted the kernel: setting the
  // same slots correctly still works.
  cl_mem buf = clCreateBuffer(context, CL_MEM_READ_WRITE, 16 * 4, nullptr,
                              &err);
  ASSERT_EQ(err, CL_SUCCESS);
  EXPECT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &buf), CL_SUCCESS);
  EXPECT_EQ(clSetKernelArg(kernel, 1, sizeof(factor), &factor), CL_SUCCESS);

  clReleaseMemObject(buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseContext(context);
}

TEST(ClApi, ZeroDimensionNDRangeIsRejectedWithoutWedgingTheQueue) {
  const char* src = R"(
__kernel void fill(__global float* x) {
  x[get_global_id(0)] = 7.0f;
}
)";
  cl_int err;
  cl_platform_id platform;
  ASSERT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);
  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, nullptr),
            CL_SUCCESS);
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_command_queue queue = clCreateCommandQueue(context, device, 0, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_program program =
      clCreateProgramWithSource(context, 1, &src, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 1, &device, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "fill", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  constexpr std::size_t n = 64;
  std::vector<float> host(n, 0.0f);
  cl_mem buf = clCreateBuffer(context, CL_MEM_READ_WRITE, n * 4, nullptr,
                              &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &buf), CL_SUCCESS);

  // A zero-sized dimension is an enqueue-time error in any position; the
  // command never reaches the queue, no event is produced, and nothing
  // hangs even though the queue runs asynchronously.
  const std::size_t zero1[1] = {0};
  EXPECT_EQ(clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, zero1, nullptr,
                                   0, nullptr, nullptr),
            CL_INVALID_GLOBAL_WORK_SIZE);
  const std::size_t zero2a[2] = {0, 8};
  const std::size_t zero2b[2] = {8, 0};
  cl_event event = nullptr;
  EXPECT_EQ(clEnqueueNDRangeKernel(queue, kernel, 2, nullptr, zero2a, nullptr,
                                   0, nullptr, &event),
            CL_INVALID_GLOBAL_WORK_SIZE);
  EXPECT_EQ(event, nullptr);
  EXPECT_EQ(clEnqueueNDRangeKernel(queue, kernel, 2, nullptr, zero2b, nullptr,
                                   0, nullptr, nullptr),
            CL_INVALID_GLOBAL_WORK_SIZE);

  // The queue is still healthy: it drains, accepts a valid launch, and the
  // launch runs to completion.
  EXPECT_EQ(clFinish(queue), CL_SUCCESS);
  const std::size_t global = n;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clEnqueueReadBuffer(queue, buf, CL_TRUE, 0, n * 4, host.data(),
                                0, nullptr, nullptr),
            CL_SUCCESS);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(host[i], 7.0f) << i;

  clReleaseMemObject(buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseCommandQueue(queue);
  clReleaseContext(context);
}

// Fixture for the event API: one context + queue on the first GPU, plus a
// built kernel that squares a buffer in place.
class ClApiEvents : public ::testing::Test {
protected:
  void SetUp() override {
    cl_int err;
    ASSERT_EQ(clGetPlatformIDs(1, &platform_, nullptr), CL_SUCCESS);
    ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device_,
                             nullptr),
              CL_SUCCESS);
    context_ = clCreateContext(nullptr, 1, &device_, nullptr, nullptr, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    queue_ = clCreateCommandQueue(context_, device_, 0, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    const char* src = R"(
__kernel void square(__global float* x) {
  size_t i = get_global_id(0);
  x[i] = x[i] * x[i];
}
)";
    program_ = clCreateProgramWithSource(context_, 1, &src, nullptr, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_EQ(clBuildProgram(program_, 1, &device_, nullptr, nullptr,
                             nullptr),
              CL_SUCCESS);
    kernel_ = clCreateKernel(program_, "square", &err);
    ASSERT_EQ(err, CL_SUCCESS);
  }

  void TearDown() override {
    clReleaseKernel(kernel_);
    clReleaseProgram(program_);
    clReleaseCommandQueue(queue_);
    clReleaseContext(context_);
  }

  cl_platform_id platform_;
  cl_device_id device_;
  cl_context context_;
  cl_command_queue queue_;
  cl_program program_;
  cl_kernel kernel_;
};

TEST_F(ClApiEvents, WaitListChainsCommandsAndWaitForEventsBlocks) {
  cl_int err;
  constexpr std::size_t n = 64;
  std::vector<float> host(n, 3.0f), out(n, 0.0f);
  cl_mem buf = clCreateBuffer(context_, CL_MEM_READ_WRITE, n * 4, nullptr,
                              &err);
  ASSERT_EQ(err, CL_SUCCESS);

  // Non-blocking write -> kernel (waits on write) -> non-blocking read
  // (waits on kernel): the host only blocks in clWaitForEvents.
  cl_event write_ev = nullptr;
  ASSERT_EQ(clEnqueueWriteBuffer(queue_, buf, CL_FALSE, 0, n * 4, host.data(),
                                 0, nullptr, &write_ev),
            CL_SUCCESS);
  ASSERT_NE(write_ev, nullptr);

  ASSERT_EQ(clSetKernelArg(kernel_, 0, sizeof(cl_mem), &buf), CL_SUCCESS);
  const std::size_t global = n;
  cl_event kernel_ev = nullptr;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue_, kernel_, 1, nullptr, &global,
                                   nullptr, 1, &write_ev, &kernel_ev),
            CL_SUCCESS);
  ASSERT_NE(kernel_ev, nullptr);

  cl_event read_ev = nullptr;
  ASSERT_EQ(clEnqueueReadBuffer(queue_, buf, CL_FALSE, 0, n * 4, out.data(),
                                1, &kernel_ev, &read_ev),
            CL_SUCCESS);
  ASSERT_NE(read_ev, nullptr);

  ASSERT_EQ(clWaitForEvents(1, &read_ev), CL_SUCCESS);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], 9.0f) << i;

  // After the chain completes, every event reports CL_COMPLETE.
  for (cl_event ev : {write_ev, kernel_ev, read_ev}) {
    cl_int status = -1;
    std::size_t size = 0;
    ASSERT_EQ(clGetEventInfo(ev, CL_EVENT_COMMAND_EXECUTION_STATUS,
                             sizeof(status), &status, &size),
              CL_SUCCESS);
    EXPECT_EQ(status, CL_COMPLETE);
    EXPECT_EQ(size, sizeof(cl_int));
  }

  EXPECT_EQ(clReleaseEvent(write_ev), CL_SUCCESS);
  EXPECT_EQ(clReleaseEvent(kernel_ev), CL_SUCCESS);
  EXPECT_EQ(clReleaseEvent(read_ev), CL_SUCCESS);
  clReleaseMemObject(buf);
}

TEST_F(ClApiEvents, BlockingWriteYieldsCompleteEvent) {
  cl_int err;
  std::vector<float> host(16, 1.0f);
  cl_mem buf = clCreateBuffer(context_, CL_MEM_READ_WRITE, 64, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  cl_event ev = nullptr;
  ASSERT_EQ(clEnqueueWriteBuffer(queue_, buf, CL_TRUE, 0, 64, host.data(), 0,
                                 nullptr, &ev),
            CL_SUCCESS);
  ASSERT_NE(ev, nullptr);
  cl_int status = -1;
  ASSERT_EQ(clGetEventInfo(ev, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(status), &status, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(status, CL_COMPLETE);  // the call blocked until completion

  EXPECT_EQ(clRetainEvent(ev), CL_SUCCESS);
  EXPECT_EQ(clReleaseEvent(ev), CL_SUCCESS);  // refcount 2 -> 1
  // Still usable after the first release.
  EXPECT_EQ(clWaitForEvents(1, &ev), CL_SUCCESS);
  EXPECT_EQ(clReleaseEvent(ev), CL_SUCCESS);
  clReleaseMemObject(buf);
}

TEST_F(ClApiEvents, EventErrorCodes) {
  EXPECT_EQ(clWaitForEvents(0, nullptr), CL_INVALID_VALUE);
  cl_event null_ev = nullptr;
  EXPECT_EQ(clWaitForEvents(1, &null_ev), CL_INVALID_EVENT);
  EXPECT_EQ(clGetEventInfo(nullptr, CL_EVENT_COMMAND_EXECUTION_STATUS, 4,
                           nullptr, nullptr),
            CL_INVALID_EVENT);
  EXPECT_EQ(clRetainEvent(nullptr), CL_INVALID_EVENT);
  EXPECT_EQ(clReleaseEvent(nullptr), CL_INVALID_EVENT);

  cl_int err;
  cl_mem buf = clCreateBuffer(context_, CL_MEM_READ_WRITE, 64, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  float data[16] = {0};

  // Malformed wait lists: count without a list, a list without a count,
  // and a null entry.
  EXPECT_EQ(clEnqueueWriteBuffer(queue_, buf, CL_TRUE, 0, 64, data, 1,
                                 nullptr, nullptr),
            CL_INVALID_EVENT_WAIT_LIST);
  cl_event ev = nullptr;
  ASSERT_EQ(clEnqueueWriteBuffer(queue_, buf, CL_TRUE, 0, 64, data, 0,
                                 nullptr, &ev),
            CL_SUCCESS);
  EXPECT_EQ(clEnqueueReadBuffer(queue_, buf, CL_TRUE, 0, 64, data, 0, &ev,
                                nullptr),
            CL_INVALID_EVENT_WAIT_LIST);
  cl_event bad_list[2] = {ev, nullptr};
  EXPECT_EQ(clEnqueueReadBuffer(queue_, buf, CL_TRUE, 0, 64, data, 2,
                                bad_list, nullptr),
            CL_INVALID_EVENT_WAIT_LIST);

  // Unsupported param / short buffer on clGetEventInfo.
  cl_int status = 0;
  EXPECT_EQ(clGetEventInfo(ev, 0x1234, sizeof(status), &status, nullptr),
            CL_INVALID_VALUE);
  EXPECT_EQ(clGetEventInfo(ev, CL_EVENT_COMMAND_EXECUTION_STATUS, 1, &status,
                           nullptr),
            CL_INVALID_VALUE);

  clReleaseEvent(ev);
  clReleaseMemObject(buf);
}

// Builds a kernel whose execution traps (divergent barrier) on the
// fixture's context; the trap is only detectable when the command runs.
class ClApiDeferredErrors : public ClApiEvents {
protected:
  void SetUp() override {
    ClApiEvents::SetUp();
    cl_int err;
    const char* src = R"(
__kernel void div_barrier(__global float* x) {
  if (get_local_id(0) < 2) barrier(CLK_LOCAL_MEM_FENCE);
  x[get_global_id(0)] = 1.0f;
}
)";
    trap_program_ = clCreateProgramWithSource(context_, 1, &src, nullptr,
                                              &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_EQ(clBuildProgram(trap_program_, 1, &device_, nullptr, nullptr,
                             nullptr),
              CL_SUCCESS);
    trap_kernel_ = clCreateKernel(trap_program_, "div_barrier", &err);
    ASSERT_EQ(err, CL_SUCCESS);
    buf_ = clCreateBuffer(context_, CL_MEM_READ_WRITE, 8 * sizeof(float),
                          nullptr, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_EQ(clSetKernelArg(trap_kernel_, 0, sizeof(cl_mem), &buf_),
              CL_SUCCESS);
  }

  void TearDown() override {
    hplrepro::clsim::set_async_enabled(true);
    clReleaseMemObject(buf_);
    clReleaseKernel(trap_kernel_);
    clReleaseProgram(trap_program_);
    ClApiEvents::TearDown();
  }

  cl_int enqueue_trap(cl_event* event_out = nullptr) {
    const std::size_t global = 8, local = 4;
    return clEnqueueNDRangeKernel(queue_, trap_kernel_, 1, nullptr, &global,
                                  &local, 0, nullptr, event_out);
  }

  cl_program trap_program_;
  cl_kernel trap_kernel_;
  cl_mem buf_;
};

TEST_F(ClApiDeferredErrors, SyncAndAsyncModesReportTheSameCode) {
  // Async: the enqueue succeeds, the failure surfaces at clFinish.
  hplrepro::clsim::set_async_enabled(true);
  ASSERT_EQ(enqueue_trap(), CL_SUCCESS);
  EXPECT_EQ(clFinish(queue_), CL_OUT_OF_RESOURCES);
  EXPECT_EQ(clFinish(queue_), CL_SUCCESS);  // reported exactly once

  // Sync: the queue drains inside the enqueue, so the same failure must
  // surface there with the same code — not as a validation error.
  hplrepro::clsim::set_async_enabled(false);
  EXPECT_EQ(enqueue_trap(), CL_OUT_OF_RESOURCES);
  EXPECT_EQ(clFinish(queue_), CL_SUCCESS);  // already consumed at enqueue
}

TEST_F(ClApiDeferredErrors, BlockingWaitConsumesTheQueueError) {
  hplrepro::clsim::set_async_enabled(true);
  cl_event trap_ev = nullptr;
  ASSERT_EQ(enqueue_trap(&trap_ev), CL_SUCCESS);

  // A blocking read chained on the failed launch reports the failure...
  float out[8] = {0};
  EXPECT_EQ(clEnqueueReadBuffer(queue_, buf_, CL_TRUE, 0, sizeof(out), out,
                                1, &trap_ev, nullptr),
            CL_OUT_OF_RESOURCES);
  // ...and clFinish does not report the already-surfaced error again.
  EXPECT_EQ(clFinish(queue_), CL_SUCCESS);
  clReleaseEvent(trap_ev);
}

TEST(ClApi, RetainReleaseCounting) {
  cl_int err;
  cl_platform_id platform;
  clGetPlatformIDs(1, &platform, nullptr);
  cl_device_id device;
  clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, nullptr);
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  cl_mem mem = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  EXPECT_EQ(clRetainMemObject(mem), CL_SUCCESS);
  EXPECT_EQ(clReleaseMemObject(mem), CL_SUCCESS);  // refcount 2 -> 1
  // The handle must still be usable after the first release.
  std::int32_t value = 99;
  cl_command_queue queue = clCreateCommandQueue(context, device, 0, &err);
  EXPECT_EQ(clEnqueueWriteBuffer(queue, mem, CL_TRUE, 0, 4, &value, 0,
                                 nullptr, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(clReleaseMemObject(mem), CL_SUCCESS);  // now destroyed
  clReleaseCommandQueue(queue);
  clReleaseContext(context);
}

}  // namespace
