#include "corpus_gen.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "isa/interpreter.hh"
#include "pipeline/thread_pool.hh"
#include "stats/rng.hh"
#include "trace/trace_file.hh"
#include "workloads/registry.hh"

namespace perfbench
{

std::vector<CorpusItem>
planCorpus(uint64_t seed)
{
    const auto &all = mica::workloads::BenchmarkRegistry::instance().all();
    mica::Rng rng(mica::Rng::childSeed(seed, 0xc0));
    std::vector<CorpusItem> plan;
    plan.reserve(all.size() * kSlotsPerKernel);
    for (size_t k = 0; k < all.size(); ++k) {
        const auto &info = all[k].info;
        std::vector<uint64_t> budgets;
        while (budgets.size() < kSlotsPerKernel) {
            const auto b = static_cast<uint64_t>(
                rng.range(static_cast<int64_t>(kMinBudget),
                          static_cast<int64_t>(kMaxBudget)));
            if (std::find(budgets.begin(), budgets.end(), b) ==
                budgets.end())
                budgets.push_back(b);
        }
        for (uint64_t b : budgets) {
            CorpusItem it;
            it.kernel = k;
            it.budget = b;
            it.file = info.suite + "__" + info.program + "-b" +
                std::to_string(b) + "." + info.input + ".trace";
            std::replace(it.file.begin(), it.file.end(), '/', '_');
            plan.push_back(std::move(it));
        }
    }
    return plan;
}

uint64_t
recordKernel(const mica::workloads::BenchmarkEntry &e, uint64_t budget,
             const std::string &path)
{
    const mica::isa::Program prog = e.build();
    mica::isa::Interpreter interp(prog);
    mica::TraceFileWriter writer(path, mica::kTraceFormatV2);
    mica::RecordingSource tee(interp, writer);
    std::vector<mica::InstRecord> buf(mica::TraceFileWriter::kChunkRecords);
    uint64_t n = 0;
    while (n < budget) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(buf.size(), budget - n));
        const mica::InstRecord *span = nullptr;
        const size_t got = tee.nextSpan(span, buf.data(), want);
        if (got == 0)
            break;
        n += got;
    }
    writer.close();
    return n;
}

void
writeCorpus(const std::vector<CorpusItem> &plan, const std::string &dir,
            mica::pipeline::ThreadPool *pool)
{
    const auto &all = mica::workloads::BenchmarkRegistry::instance().all();
    mica::pipeline::parallelBlocks(pool, plan.size(), [&](size_t i) {
        recordKernel(all[plan[i].kernel], plan[i].budget,
                     dir + "/" + plan[i].file);
    });
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace perfbench
