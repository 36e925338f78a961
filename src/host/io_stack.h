/**
 * @file
 * Host I/O stack models.
 *
 * The paper (§2.4, §4.3) measures the Linux kernel I/O path at ~9100 CPU
 * cycles to issue and ~21900 cycles to complete a request — about 12.9 µs
 * on the 2.4 GHz E5620 — while SDF's user-space IOCTRL path costs only
 * 2–4 µs. This module charges those costs against a pool of host CPUs so
 * that IOPS-heavy workloads see both the latency and the CPU saturation.
 */
#ifndef SDF_HOST_IO_STACK_H
#define SDF_HOST_IO_STACK_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.h"
#include "sim/fifo_resource.h"
#include "sim/simulator.h"

namespace sdf::host {

using util::TimeNs;

/** Per-request CPU costs of one software stack. */
struct IoStackSpec
{
    std::string name;
    TimeNs issue_cost = 0;       ///< Before the device sees the request.
    TimeNs completion_cost = 0;  ///< Interrupt/completion processing.
};

/** Linux VFS + block + SCSI/SATA path (Figure 6a): ~12.9 µs per request. */
IoStackSpec KernelIoStackSpec();

/** SDF's user-space IOCTRL + thin PCIe driver (Figure 6b): ~2-4 µs. */
IoStackSpec SdfUserStackSpec();

/** Zero-cost stack for experiments isolating the device. */
IoStackSpec NullIoStackSpec();

/**
 * Charges stack CPU costs around asynchronous device operations.
 *
 * An operation is a callable that takes a completion callback; Issue()
 * charges the issue cost on a host CPU, invokes the operation, and charges
 * the completion cost before delivering the final callback.
 */
class IoStack
{
  public:
    /** @param cpu_count Host hardware threads (2x E5620 = 16 in Table 2). */
    IoStack(sim::Simulator &sim, const IoStackSpec &spec,
            uint32_t cpu_count = 16);

    IoStack(const IoStack &) = delete;
    IoStack &operator=(const IoStack &) = delete;

    /** Operation: called with the callback it must invoke when done. */
    using Operation = sim::Func<void(sim::Callback done)>;

    /**
     * Run @p op through the stack; @p done fires after completion cost.
     * @p span, when non-null, gets the host-side cuts: everything before
     * the CPU hands the request to @p op is host_issue, everything between
     * the device's completion and @p done is host_complete.
     */
    void Issue(Operation op, sim::Callback done, obs::IoSpan *span = nullptr);

    /**
     * The two halves of Issue(), for callers whose completion carries more
     * than a bare callback (a typed device status): Start() counts the
     * request and runs @p start once a CPU has paid the issue cost;
     * Complete() pays the completion cost, then runs @p done.
     */
    void Start(sim::Callback start, obs::IoSpan *span = nullptr);
    void Complete(sim::Callback done, obs::IoSpan *span = nullptr);

    /** Total CPU time consumed by stack processing. */
    TimeNs cpu_time() const { return cpu_time_; }
    uint64_t requests() const { return requests_; }
    const IoStackSpec &spec() const { return spec_; }

  private:
    sim::FifoResource &PickCpu();

    sim::Simulator &sim_;
    IoStackSpec spec_;
    std::vector<std::unique_ptr<sim::FifoResource>> cpus_;
    TimeNs cpu_time_ = 0;
    uint64_t requests_ = 0;
};

/**
 * A closed-loop "thread": issues one operation, waits for completion, and
 * immediately issues the next — the synchronous client model used
 * throughout the paper's evaluation.
 */
class ClosedLoopActor
{
  public:
    /** Body: one iteration; must invoke the callback when complete. */
    using Body = std::function<void(sim::Callback done)>;

    ClosedLoopActor(sim::Simulator &sim, Body body)
        : sim_(sim), body_(std::move(body)) {}

    /** Begin iterating. */
    void
    Start()
    {
        running_ = true;
        sim_.Post([this]() { Iterate(); });
    }

    /** Stop after the in-flight iteration completes. */
    void Stop() { running_ = false; }

    bool running() const { return running_; }
    uint64_t completed() const { return completed_; }

  private:
    void
    Iterate()
    {
        if (!running_) return;
        body_([this]() {
            ++completed_;
            if (running_) Iterate();
        });
    }

    sim::Simulator &sim_;
    Body body_;
    bool running_ = false;
    uint64_t completed_ = 0;
};

}  // namespace sdf::host

#endif  // SDF_HOST_IO_STACK_H
