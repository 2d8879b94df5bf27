#include "pipeline/parallel_collector.hh"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "isa/interpreter.hh"
#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"
#include "uarch/hpc_runner.hh"
#include "util/failpoint.hh"

namespace mica::pipeline
{

namespace
{

/**
 * Fault-injection hook for the analysis phase itself (as opposed to
 * the I/O layer hooks in checked_io). Evaluated once per mica job —
 * never in the hpc job — so an `error@N` trigger quarantines a
 * deterministic benchmark count regardless of worker interleaving.
 */
void
checkAnalyzeFault(const std::string &bench)
{
    if (!util::failpointsArmed())
        return;
    const util::FailDecision d = util::evalFailpoint("pipeline.analyze");
    if (!d)
        return;
    switch (d.op) {
    case util::FailOp::Delay:
        std::this_thread::sleep_for(std::chrono::milliseconds(d.param));
        return;
    case util::FailOp::Abort:
        ::_exit(util::kCrashExitCode);
    default:
        throw std::runtime_error(
            "injected analyzer fault (pipeline.analyze): " + bench);
    }
}

/**
 * Per-entry failure ledger for fault-isolated sweeps. Workers record
 * under a mutex; the flush after the pool drains reads it single-
 * threaded, so the report is in input order no matter which worker
 * failed first.
 */
struct FailState
{
    explicit FailState(size_t n)
        : errMica(n), errHpc(n),
          failed(std::make_unique<std::atomic<bool>[]>(n))
    {
        for (size_t i = 0; i < n; ++i)
            failed[i].store(false, std::memory_order_relaxed);
    }

    void
    record(size_t i, bool micaJob, std::string msg)
    {
        if (msg.empty())
            msg = "unknown error";
        std::lock_guard<std::mutex> lock(mutex);
        (micaJob ? errMica : errHpc)[i] = std::move(msg);
        failed[i].store(true, std::memory_order_release);
    }

    std::vector<std::string> errMica, errHpc;
    std::unique_ptr<std::atomic<bool>[]> failed;
    std::mutex mutex;
};

/**
 * Telemetry for one profiling job: a pipeline.job span labeled with
 * the benchmark and characterization kind, plus the job-completion
 * counter the progress reporter's final line is derived from.
 */
struct JobObs
{
    JobObs(const std::string &bench, const char *kind)
        : span_("pipeline.job")
    {
        span_.arg("bench", bench);
        span_.arg("kind", kind);
    }

    ~JobObs()
    {
        static obs::Counter done("pipeline.job.done");
        done.add(1);
    }

    obs::ObsSpan span_;
};

/** Shared progress state, serializing callback invocations. */
struct Progress
{
    Progress(const ProgressFn &f, size_t t) : fn(f), total(t) {}

    const ProgressFn &fn;
    const size_t total;
    size_t done = 0;
    std::mutex mutex;

    void
    tick(const std::string &label)
    {
        if (!fn)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        fn(++done, total, label);
    }
};

MicaProfile
runMicaJob(const isa::Program &prog, const std::string &name,
           const MicaRunnerConfig &rc)
{
    isa::Interpreter interp(prog);
    return collectMicaProfile(interp, name, rc);
}

uarch::HwCounterProfile
runHpcJob(const isa::Program &prog, const std::string &name,
          const MicaRunnerConfig &rc)
{
    isa::Interpreter interp(prog);
    return uarch::collectHwProfile(interp, name, rc.maxInsts);
}

/**
 * One benchmark's program, built at most once and shared by its two
 * profiling jobs. The build runs lazily inside whichever job gets
 * there first so a throwing kernel build still surfaces through that
 * job's future (and the unlucky second job retries and throws too),
 * exactly like the build-per-job scheme it replaces.
 */
struct SharedProgram
{
    const isa::Program &
    get(const workloads::BenchmarkEntry &e)
    {
        std::call_once(once, [&] { program.emplace(e.build()); });
        return *program;
    }

    std::once_flag once;
    std::optional<const isa::Program> program;
};

} // namespace

std::vector<StoredProfile>
collectProfiles(const std::vector<const workloads::BenchmarkEntry *> &entries,
                const MicaRunnerConfig &rc, unsigned jobs,
                const ProgressFn &progress, const ResultFn &onResult,
                const FaultPolicy &policy,
                std::vector<SweepFailure> *failures)
{
    std::vector<StoredProfile> results(entries.size());
    Progress prog(progress, entries.size() * 2);
    FailState fail(entries.size());

    // Called from inside a catch block. Without isolation the active
    // exception propagates exactly as it always has; with isolation
    // it becomes a ledger entry and the sweep moves on.
    auto handleJobError = [&](size_t i, bool micaJob) {
        if (!policy.isolate)
            throw;
        try {
            throw;
        } catch (const std::exception &ex) {
            fail.record(i, micaJob, ex.what());
        } catch (...) {
            fail.record(i, micaJob, "unknown error");
        }
    };

    // After all workers drain: clear any half-written result slots,
    // emit the input-order failure report, and enforce the cap.
    auto flushFailures = [&]() {
        if (!policy.isolate)
            return;
        size_t count = 0;
        for (size_t i = 0; i < entries.size(); ++i) {
            if (!fail.failed[i].load(std::memory_order_acquire))
                continue;
            ++count;
            results[i] = StoredProfile{};
            if (failures) {
                const bool micaJob = !fail.errMica[i].empty();
                failures->push_back(
                    {entries[i]->info.fullName(),
                     micaJob ? "mica" : "hpc",
                     micaJob ? fail.errMica[i] : fail.errHpc[i]});
            }
        }
        if (count > 0) {
            static obs::Counter quarantined("pipeline.quarantined");
            quarantined.add(count);
        }
        if (count > policy.maxFailures)
            throw SweepAborted(count, policy.maxFailures);
    };

    if (jobs == 1) {
        // Serial path: one build, one interpreter, reset between the
        // two characterizations — same behavior (and cost) as the
        // original serial sweep. Trace-backed entries substitute
        // their replay source for the interpreter; the records are
        // the same stream either way, so the profiles are too. The
        // mica job drains its source, so a budget that stops short of
        // the recording still has the whole payload verified before
        // the benchmark's result counts.
        for (size_t i = 0; i < entries.size(); ++i) {
            const auto &e = *entries[i];
            bool micaJob = true;
            try {
                if (e.source) {
                    auto src = e.source();
                    {
                        JobObs jo(e.info.fullName(), "mica");
                        checkAnalyzeFault(e.info.fullName());
                        results[i].mica =
                            collectMicaProfile(*src, e.info.fullName(), rc);
                        drainSource(*src);
                    }
                    prog.tick(e.info.fullName() + " [mica]");
                    micaJob = false;
                    if (!src->reset())
                        src = e.source();
                    JobObs jo(e.info.fullName(), "hpc");
                    results[i].hpc = uarch::collectHwProfile(
                        *src, e.info.fullName(), rc.maxInsts);
                } else {
                    const isa::Program program = e.build();
                    isa::Interpreter interp(program);
                    {
                        JobObs jo(e.info.fullName(), "mica");
                        checkAnalyzeFault(e.info.fullName());
                        results[i].mica =
                            collectMicaProfile(interp, e.info.fullName(), rc);
                    }
                    prog.tick(e.info.fullName() + " [mica]");
                    micaJob = false;
                    interp.reset();
                    JobObs jo(e.info.fullName(), "hpc");
                    results[i].hpc = uarch::collectHwProfile(
                        interp, e.info.fullName(), rc.maxInsts);
                }
                prog.tick(e.info.fullName() + " [hpc]");
                if (onResult)
                    onResult(results[i]);
            } catch (...) {
                handleJobError(i, micaJob);
            }
        }
        flushFailures();
        return results;
    }

    // Each benchmark's two jobs decrement this; whoever finishes
    // second delivers the completed result.
    auto pending = std::make_unique<std::atomic<int>[]>(entries.size());
    for (size_t i = 0; i < entries.size(); ++i)
        pending[i].store(2, std::memory_order_relaxed);
    auto finishJob = [&](size_t i) {
        if (pending[i].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            onResult && !fail.failed[i].load(std::memory_order_acquire))
            onResult(results[i]);
    };

    ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(entries.size() * 2);
    for (size_t i = 0; i < entries.size(); ++i) {
        const auto *e = entries[i];
        if (e->source) {
            // Trace-backed entries have nothing to share: each job
            // opens its own (cheap) replay source, so the two jobs
            // never contend on a read cursor. The mica job drains its
            // source, since the payload checksum is only known at the
            // end of the trace; the hpc job need not, because a
            // benchmark's result is delivered only when both of its
            // jobs succeed, so a failed drain quarantines both.
            futures.push_back(pool.submit([e, &rc, &results, &prog,
                                           &finishJob, &handleJobError, i] {
                try {
                    auto src = e->source();
                    {
                        JobObs jo(e->info.fullName(), "mica");
                        checkAnalyzeFault(e->info.fullName());
                        results[i].mica =
                            collectMicaProfile(*src, e->info.fullName(), rc);
                        drainSource(*src);
                    }
                    prog.tick(e->info.fullName() + " [mica]");
                } catch (...) {
                    handleJobError(i, true);
                }
                finishJob(i);
            }));
            futures.push_back(pool.submit([e, &rc, &results, &prog,
                                           &finishJob, &handleJobError, i] {
                try {
                    auto src = e->source();
                    {
                        JobObs jo(e->info.fullName(), "hpc");
                        results[i].hpc = uarch::collectHwProfile(
                            *src, e->info.fullName(), rc.maxInsts);
                    }
                    prog.tick(e->info.fullName() + " [hpc]");
                } catch (...) {
                    handleJobError(i, false);
                }
                finishJob(i);
            }));
            continue;
        }
        // Build each program once and lend the immutable result to
        // both profiling jobs instead of rebuilding it per job; the
        // shared_ptr keeps it alive until the slower job finishes.
        auto program = std::make_shared<SharedProgram>();
        futures.push_back(pool.submit([e, program, &rc, &results, &prog,
                                       &finishJob, &handleJobError, i] {
            try {
                {
                    JobObs jo(e->info.fullName(), "mica");
                    checkAnalyzeFault(e->info.fullName());
                    results[i].mica =
                        runMicaJob(program->get(*e), e->info.fullName(), rc);
                }
                prog.tick(e->info.fullName() + " [mica]");
            } catch (...) {
                handleJobError(i, true);
            }
            finishJob(i);
        }));
        futures.push_back(pool.submit([e, program, &rc, &results, &prog,
                                       &finishJob, &handleJobError, i] {
            try {
                {
                    JobObs jo(e->info.fullName(), "hpc");
                    results[i].hpc =
                        runHpcJob(program->get(*e), e->info.fullName(), rc);
                }
                prog.tick(e->info.fullName() + " [hpc]");
            } catch (...) {
                handleJobError(i, false);
            }
            finishJob(i);
        }));
    }

    // Wait for every job before rethrowing so no worker still touches
    // `results` when an exception unwinds this frame. Under isolation
    // no future carries an exception — failures land in the ledger
    // and are flushed (and possibly escalated) below.
    std::exception_ptr firstError;
    for (auto &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!firstError)
                firstError = std::current_exception();
        }
    }
    if (firstError)
        std::rethrow_exception(firstError);
    flushFailures();
    return results;
}

} // namespace mica::pipeline
