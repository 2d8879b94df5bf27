/**
 * @file
 * Deterministic replay fuzzer for the binary trace reader.
 *
 * A seeded mutator damages small v1 and v2 traces — bit flips, byte
 * splices, truncations, chunk-count edits and column-length edits —
 * and replays each damaged file to its end through openTraceFile.
 * The property: the replay either yields exactly the original records
 * or throws TraceFileError, and a throwing replay publishes nothing.
 * A second pass re-seals the damaged payload (header size, record
 * count and checksum recomputed) so the damage reaches the structural
 * checks and the column decoder with a valid checksum; there the
 * property is that only TraceFileError escapes and a completed replay
 * yields exactly the header's record count.
 *
 * Both passes also hold the reader to what analyzers rely on: every
 * record it lends, even one a later checksum failure disowns, has a
 * valid class, at most three source registers and a 0/1 taken byte;
 * and each damaged file is run through collectMicaProfile and
 * collectHwProfile the way a trace job runs it, so a record the
 * reader should have rejected shows up under ASan+UBSan.
 *
 * The iteration count defaults to a short run; set MICA_FUZZ_ITERS
 * for a long one (and MICA_FUZZ_SEED to change the seed), e.g.
 *
 *   MICA_FUZZ_ITERS=20000 ./build/mica_tests --gtest_filter='TraceReplayFuzz*'
 *
 * A crasher found this way is checked in as its own TEST with the
 * damaged bytes spelled out, and the reader is fixed rather than the
 * property loosened.
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mica/runner.hh"
#include "trace/columnar.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "uarch/hpc_runner.hh"

namespace mica
{
namespace
{

namespace fs = std::filesystem;

constexpr size_t kHeaderBytes = 48;
constexpr uint32_t kChunkMagicV1 = 0x4b484354;     // "TCHK"
constexpr uint32_t kChunkMagicV2 = 0x32484354;     // "TCH2"
constexpr size_t kChunkHeaderV1 = 8;
constexpr size_t kChunkHeaderV2 = 8 + 4 * columnar::kNumColumns;

uint64_t
envOr(const char *name, uint64_t dflt)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtoull(v, nullptr, 10) : dflt;
}

template <typename T>
void
put(std::string &out, const T &v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
void
poke(std::string &bytes, size_t offset, const T &v)
{
    std::memcpy(&bytes[offset], &v, sizeof(T));
}

/** Where each chunk of a built trace starts (file offsets). */
struct BuiltTrace
{
    std::string bytes;
    std::vector<size_t> chunkOffsets;
};

/**
 * Write every header field but the checksum — the same fields, at the
 * same offsets, that TraceFileWriter::close() patches in.
 */
void
sealHeader(std::string &bytes, uint32_t version, uint64_t records)
{
    std::memcpy(&bytes[0], "MICATRC\n", 8);
    poke(bytes, 8, version);
    poke(bytes, 12, static_cast<uint32_t>(sizeof(InstRecord)));
    poke(bytes, 16, kTraceLayoutHash);
    poke(bytes, 24, records);
    poke(bytes, 32, static_cast<uint64_t>(bytes.size() - kHeaderBytes));
}

/**
 * Build a trace in memory with chunks of @p chunkRecords, so a file
 * of a few hundred records still spans several chunks. Apart from
 * the chunk size this is TraceFileWriter's encoding, byte for byte
 * (BuilderMatchesTheWriter checks it).
 */
BuiltTrace
buildTrace(uint32_t version, const std::vector<InstRecord> &recs,
           size_t chunkRecords)
{
    BuiltTrace t;
    t.bytes.assign(kHeaderBytes, '\0');
    uint64_t hash = fnv1a(nullptr, 0);
    std::string enc;
    for (size_t base = 0; base < recs.size(); base += chunkRecords) {
        const size_t n = std::min(chunkRecords, recs.size() - base);
        const uint32_t count = static_cast<uint32_t>(n);
        t.chunkOffsets.push_back(t.bytes.size());
        if (version == kTraceFormatV1) {
            // Zeroed padding, exactly as the writer stores records.
            std::string body(n * sizeof(InstRecord), '\0');
            for (size_t i = 0; i < n; ++i) {
                InstRecord clean;
                std::memset(static_cast<void *>(&clean), 0, sizeof(clean));
                const InstRecord &r = recs[base + i];
                clean.pc = r.pc;
                clean.cls = r.cls;
                clean.numSrcRegs = r.numSrcRegs;
                clean.srcRegs = r.srcRegs;
                clean.dstReg = r.dstReg;
                clean.memAddr = r.memAddr;
                clean.memSize = r.memSize;
                clean.taken = r.taken;
                clean.target = r.target;
                std::memcpy(&body[i * sizeof(InstRecord)], &clean,
                            sizeof(clean));
            }
            hash = fnv1a(&kChunkMagicV1, 4, hash);
            hash = fnv1a(&count, 4, hash);
            hash = fnv1a(body.data(), body.size(), hash);
            put(t.bytes, kChunkMagicV1);
            put(t.bytes, count);
            t.bytes += body;
        } else {
            enc.clear();
            uint32_t colBytes[columnar::kNumColumns] = {};
            columnar::encodeChunk(recs.data() + base, n, enc, colBytes);
            std::string ch;
            put(ch, kChunkMagicV2);
            put(ch, count);
            ch.append(reinterpret_cast<const char *>(colBytes),
                      sizeof(colBytes));
            hash = fnv1a(ch.data(), ch.size(), hash);
            hash = fnv1a(enc.data(), enc.size(), hash);
            t.bytes += ch;
            t.bytes += enc;
        }
    }
    sealHeader(t.bytes, version, recs.size());
    poke(t.bytes, 40, hash);
    return t;
}

/** Recompute size, count and checksum over a damaged v1/v2 payload. */
void
reseal(std::string &bytes, uint64_t records)
{
    if (bytes.size() < kHeaderBytes)
        return;
    uint32_t version = 0;
    std::memcpy(&version, &bytes[8], sizeof(version));
    // Hash the payload the way the reader folds it, chunk piece by
    // chunk piece; past the first unparseable chunk header, the rest
    // folds as one piece (the reader rejects there anyway).
    uint64_t hash = fnv1a(nullptr, 0);
    size_t off = kHeaderBytes;
    while (off < bytes.size()) {
        const size_t left = bytes.size() - off;
        if (version == kTraceFormatV1 && left >= kChunkHeaderV1) {
            uint32_t count = 0;
            std::memcpy(&count, &bytes[off + 4], 4);
            const uint64_t body = uint64_t(count) * sizeof(InstRecord);
            if (body <= left - kChunkHeaderV1) {
                hash = fnv1a(&bytes[off], 4, hash);
                hash = fnv1a(&bytes[off + 4], 4, hash);
                hash = fnv1a(&bytes[off + kChunkHeaderV1], body, hash);
                off += kChunkHeaderV1 + body;
                continue;
            }
        }
        if (version == kTraceFormatV2 && left >= kChunkHeaderV2) {
            uint64_t body = 0;
            for (size_t c = 0; c < columnar::kNumColumns; ++c) {
                uint32_t b = 0;
                std::memcpy(&b, &bytes[off + 8 + 4 * c], 4);
                body += b;
            }
            if (body <= left - kChunkHeaderV2) {
                hash = fnv1a(&bytes[off], kChunkHeaderV2, hash);
                hash = fnv1a(&bytes[off + kChunkHeaderV2], body, hash);
                off += kChunkHeaderV2 + body;
                continue;
            }
        }
        hash = fnv1a(&bytes[off], left, hash);
        break;
    }
    poke(bytes, 24, records);
    poke(bytes, 32, static_cast<uint64_t>(bytes.size() - kHeaderBytes));
    poke(bytes, 40, hash);
}

enum Mutation
{
    BitFlip,
    SpliceOverwrite,
    SpliceInsert,
    Truncate,
    ChunkCount,
    ColumnLength,
    kNumMutations
};

/** Apply one seeded mutation to @p t (a copy of a built trace). */
void
mutate(BuiltTrace &t, uint32_t version, std::mt19937_64 &rng)
{
    std::string &b = t.bytes;
    auto pick = [&](size_t n) {
        return n == 0 ? size_t{0} : static_cast<size_t>(rng() % n);
    };
    const size_t chunk = t.chunkOffsets.empty()
                             ? kHeaderBytes
                             : t.chunkOffsets[pick(t.chunkOffsets.size())];
    switch (static_cast<Mutation>(rng() % kNumMutations)) {
      case BitFlip: {
        const size_t flips = 1 + pick(3);
        for (size_t i = 0; i < flips; ++i)
            b[pick(b.size())] ^= static_cast<char>(1u << pick(8));
        break;
      }
      case SpliceOverwrite: {
        const size_t from = pick(b.size());
        const size_t to = pick(b.size());
        const size_t len =
            std::min(1 + pick(64), b.size() - std::max(from, to));
        b.replace(to, len, b.substr(from, len));
        break;
      }
      case SpliceInsert: {
        const size_t from = pick(b.size());
        const size_t len = std::min(1 + pick(64), b.size() - from);
        b.insert(pick(b.size() + 1), b.substr(from, len));
        break;
      }
      case Truncate:
        b.resize(pick(b.size()));
        break;
      case ChunkCount: {
        if (chunk + 8 > b.size())
            break;
        uint32_t count = 0;
        std::memcpy(&count, &b[chunk + 4], 4);
        const uint32_t edits[] = {0, count - 1, count + 1, count * 2,
                                  0xffffffffu,
                                  static_cast<uint32_t>(rng())};
        poke(b, chunk + 4, edits[pick(6)]);
        break;
      }
      case ColumnLength: {
        if (version != kTraceFormatV2 || chunk + kChunkHeaderV2 > b.size())
            break;
        // Move bytes between two columns (the chunk's total, and so
        // every size check, stays intact), or resize one outright.
        const size_t i = pick(columnar::kNumColumns);
        const size_t j = pick(columnar::kNumColumns);
        uint32_t ci = 0, cj = 0;
        std::memcpy(&ci, &b[chunk + 8 + 4 * i], 4);
        std::memcpy(&cj, &b[chunk + 8 + 4 * j], 4);
        const uint32_t d = static_cast<uint32_t>(1 + pick(8));
        if (rng() % 2 && i != j && cj >= d) {
            poke(b, chunk + 8 + 4 * i, ci + d);
            poke(b, chunk + 8 + 4 * j, cj - d);
        } else {
            poke(b, chunk + 8 + 4 * i, ci ^ (1u << pick(32)));
        }
        break;
      }
      case kNumMutations:
        break;
    }
}

bool
sameCanonical(const InstRecord &a, const InstRecord &b)
{
    const InstRecord x = columnar::canonicalRecord(a);
    const InstRecord y = columnar::canonicalRecord(b);
    return x.pc == y.pc && x.cls == y.cls &&
           x.numSrcRegs == y.numSrcRegs && x.srcRegs == y.srcRegs &&
           x.dstReg == y.dstReg && x.memAddr == y.memAddr &&
           x.memSize == y.memSize && x.taken == y.taken &&
           x.target == y.target;
}

/**
 * @return true when @p r's analyzer-indexed fields are in range; the
 * taken byte is read raw, since a damaged bool must not be loaded.
 */
bool
wellFormed(const InstRecord &r)
{
    const auto *b = reinterpret_cast<const unsigned char *>(&r);
    return b[offsetof(InstRecord, cls)] < kNumInstClasses &&
           b[offsetof(InstRecord, numSrcRegs)] <= 3 &&
           b[offsetof(InstRecord, taken)] <= 1;
}

/** Outcome of one full replay of a file. */
struct Replay
{
    bool threw = false;
    bool lentMalformed = false;        ///< a lent record was out of range
    std::string error;
    std::vector<InstRecord> records;   ///< empty whenever threw
};

Replay
replayFile(const std::string &path)
{
    Replay r;
    std::vector<InstRecord> got;
    try {
        auto src = openTraceFile(path);
        InstRecord buf[64];
        const InstRecord *span = nullptr;
        size_t n;
        while ((n = src->nextSpan(span, buf, 64)) != 0) {
            for (size_t i = 0; i < n; ++i)
                r.lentMalformed |= !wellFormed(span[i]);
            got.insert(got.end(), span, span + n);
        }
    } catch (const TraceFileError &e) {
        r.threw = true;
        r.error = e.what();
        return r;       // nothing published
    }
    r.records = std::move(got);
    return r;
}

/**
 * Run both characterizations over @p path as a trace job does, each
 * on its own reader; a TraceFileError fails the job and is fine.
 */
void
analyzeFile(const std::string &path)
{
    try {
        auto src = openTraceFile(path);
        (void)collectMicaProfile(*src, "fuzz");
    } catch (const TraceFileError &) {
    }
    try {
        auto src = openTraceFile(path);
        (void)uarch::collectHwProfile(*src, "fuzz");
    } catch (const TraceFileError &) {
    }
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct TmpDir
{
    std::string dir;

    TmpDir()
    {
        char tmpl[] = "/tmp/mica_fuzz_replay_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_fuzz_replay_fallback";
    }

    ~TmpDir() { fs::remove_all(dir); }
};

std::vector<InstRecord>
seedRecords(uint64_t n, uint64_t seed)
{
    RandomTraceParams p;
    p.numInsts = n;
    p.seed = seed;
    RandomTraceSource src(p);
    std::vector<InstRecord> out;
    InstRecord r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

/**
 * One fuzz case: build, mutate, replay, check the property.
 * @p resealed forges a valid checksum over the damage.
 */
void
fuzzOne(const std::string &path, uint32_t version,
        const std::vector<InstRecord> &recs, size_t chunkRecords,
        bool resealed, std::mt19937_64 &rng, uint64_t iter)
{
    BuiltTrace t = buildTrace(version, recs, chunkRecords);
    const size_t mutations = 1 + rng() % 2;
    for (size_t m = 0; m < mutations; ++m)
        mutate(t, version, rng);
    if (resealed)
        reseal(t.bytes, recs.size());
    writeFile(path, t.bytes);

    Replay r;
    try {
        r = replayFile(path);
    } catch (const std::exception &e) {
        FAIL() << "iteration " << iter << ": non-trace exception "
               << e.what();
    }
    // Checked before the analyzers run: a malformed record would make
    // them index out of bounds.
    ASSERT_FALSE(r.lentMalformed)
        << "iteration " << iter << ": the reader lent a record whose "
        << "class, source count or taken byte is out of range";
    try {
        analyzeFile(path);
    } catch (const std::exception &e) {
        FAIL() << "iteration " << iter << ": non-trace exception "
               << e.what();
    }
    if (r.threw)
        return;     // rejected, nothing published: fine either way
    if (resealed) {
        // A forged checksum can make changed records valid; what must
        // hold is that the reader kept to the header's record count.
        ASSERT_EQ(r.records.size(), recs.size()) << "iteration " << iter;
        return;
    }
    ASSERT_EQ(r.records.size(), recs.size())
        << "iteration " << iter << ": damaged file replayed short/long";
    for (size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(sameCanonical(r.records[i], recs[i]))
            << "iteration " << iter << ": record " << i
            << " changed without a TraceFileError";
}

TEST(TraceReplayFuzzTest, BuilderMatchesTheWriter)
{
    // The fuzzer's small-chunk builder must produce what the writer
    // produces when the chunk sizes agree, or it fuzzes another format.
    TmpDir tmp;
    const auto recs = seedRecords(300, 3);
    for (uint32_t version : {kTraceFormatV1, kTraceFormatV2}) {
        const std::string path = tmp.dir + "/w.trace";
        TraceFileWriter w(path, version);
        w.append(recs.data(), recs.size());
        w.close();
        std::ifstream in(path, std::ios::binary);
        const std::string written((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
        const size_t chunk = version == kTraceFormatV1
                                 ? TraceFileWriter::kChunkRecords
                                 : TraceFileWriter::kChunkRecordsV2;
        EXPECT_EQ(buildTrace(version, recs, chunk).bytes, written)
            << "v" << version;
    }
}

TEST(TraceReplayFuzzTest, DamagedTracesReplayIdenticallyOrReject)
{
    const uint64_t iters = envOr("MICA_FUZZ_ITERS", 400);
    const uint64_t seed = envOr("MICA_FUZZ_SEED", 20061001);
    TmpDir tmp;
    const std::string path = tmp.dir + "/f.trace";
    std::mt19937_64 rng(seed);
    // Small record sets with small chunks: several chunks per file.
    const auto a = seedRecords(257, 11);
    const auto b = seedRecords(64, 12);
    for (uint64_t it = 0; it < iters; ++it) {
        const uint32_t version =
            it % 2 ? kTraceFormatV2 : kTraceFormatV1;
        const auto &recs = (it / 2) % 3 ? a : b;
        const size_t chunkRecords = 1 + rng() % 100;
        fuzzOne(path, version, recs, chunkRecords, false, rng, it);
        if (HasFatalFailure())
            return;
    }
}

TEST(TraceReplayFuzzTest, ResealedDamageOnlyEverThrowsTraceFileError)
{
    const uint64_t iters = envOr("MICA_FUZZ_ITERS", 400);
    const uint64_t seed = envOr("MICA_FUZZ_SEED", 20061001) + 1;
    TmpDir tmp;
    const std::string path = tmp.dir + "/f.trace";
    std::mt19937_64 rng(seed);
    const auto recs = seedRecords(200, 13);
    for (uint64_t it = 0; it < iters; ++it) {
        const uint32_t version =
            it % 2 ? kTraceFormatV2 : kTraceFormatV1;
        const size_t chunkRecords = 1 + rng() % 80;
        fuzzOne(path, version, recs, chunkRecords, true, rng, it);
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace mica
