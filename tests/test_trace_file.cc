/**
 * @file
 * Tests for file-backed trace recording and replay: the binary format
 * round trip (bit for bit, through FileTraceSource and openTraceFile),
 * writer atomicity, rejection of corrupt/truncated/version-mismatched
 * files through replay as well as probeTraceFile,
 * the RecordingSource tee, the next()/nextBatch()/nextSpan() prefix
 * contract across every source, text traces, trace-directory
 * benchmark surfacing, and the load-bearing contract of the whole
 * subsystem: replaying a recorded trace produces profiles
 * byte-identical to interpreting the program directly.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiments.hh"
#include "isa/interpreter.hh"
#include "mica/runner.hh"
#include "obs/obs.hh"
#include "pipeline/profile_store.hh"
#include "test_util.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "uarch/hpc_runner.hh"
#include "workloads/registry.hh"

namespace mica
{
namespace
{

namespace fs = std::filesystem;

/** Self-cleaning unique temp directory (parallel ctest safe). */
struct TmpDir
{
    std::string dir;

    TmpDir()
    {
        char tmpl[] = "/tmp/mica_test_trace_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_test_trace_fallback";
    }

    ~TmpDir() { fs::remove_all(dir); }

    std::string file(const std::string &name) const
    {
        return dir + "/" + name;
    }
};

bool
sameRec(const InstRecord &a, const InstRecord &b)
{
    return a.pc == b.pc && a.cls == b.cls &&
           a.numSrcRegs == b.numSrcRegs && a.srcRegs == b.srcRegs &&
           a.dstReg == b.dstReg && a.memAddr == b.memAddr &&
           a.memSize == b.memSize && a.taken == b.taken &&
           a.target == b.target;
}

/** A deterministic, varied record stream for round-trip tests. */
std::vector<InstRecord>
sampleRecords(uint64_t n, uint64_t seed = 7)
{
    RandomTraceParams p;
    p.numInsts = n;
    p.seed = seed;
    RandomTraceSource src(p);
    std::vector<InstRecord> out;
    out.reserve(n);
    InstRecord r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

std::string
writeTrace(const TmpDir &tmp, const std::vector<InstRecord> &recs,
           const std::string &name = "t.trace")
{
    const std::string path = tmp.file(name);
    TraceFileWriter w(path);
    w.append(recs.data(), recs.size());
    w.close();
    return path;
}

/** Overwrite bytes at an absolute file offset. */
void
patchBytes(const std::string &path, uint64_t offset, const void *data,
           size_t n)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char *>(data),
            static_cast<std::streamsize>(n));
}

// ----------------------------------------------------------------------
// Round trip
// ----------------------------------------------------------------------

TEST(TraceFileTest, RoundTripsBitForBitThroughBothReaders)
{
    TmpDir tmp;
    // Spans multiple chunks (kChunkRecords = 4096) plus a partial one.
    const auto recs = sampleRecords(3 * TraceFileWriter::kChunkRecords +
                                    1234);
    const std::string path = writeTrace(tmp, recs);

    EXPECT_EQ(probeTraceFile(path).recordCount, recs.size());

    // The reader itself and the openTraceFile entry point.
    FileTraceSource streamed(path);
    auto opened = openTraceFile(path);
    EXPECT_EQ(streamed.recordCount(), recs.size());
    InstRecord a, b;
    for (size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(streamed.next(a)) << i;
        ASSERT_TRUE(opened->next(b)) << i;
        EXPECT_TRUE(sameRec(a, recs[i])) << i;
        EXPECT_TRUE(sameRec(b, recs[i])) << i;
    }
    EXPECT_FALSE(streamed.next(a));
    EXPECT_FALSE(opened->next(b));
}

TEST(TraceFileTest, RecordingTheSameTraceTwiceIsByteIdentical)
{
    TmpDir tmp;
    const auto recs = sampleRecords(5000);
    const std::string p1 = writeTrace(tmp, recs, "a.trace");
    const std::string p2 = writeTrace(tmp, recs, "b.trace");
    std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
    std::stringstream s1, s2;
    s1 << f1.rdbuf();
    s2 << f2.rdbuf();
    // Zeroed struct padding makes recordings reproducible files.
    EXPECT_EQ(s1.str(), s2.str());
    EXPECT_EQ(s1.str().size(), fs::file_size(p1));
}

TEST(TraceFileTest, EmptyTraceRoundTrips)
{
    TmpDir tmp;
    const std::string path = writeTrace(tmp, {});
    EXPECT_EQ(probeTraceFile(path).recordCount, 0u);
    FileTraceSource streamed(path);
    auto opened = openTraceFile(path);
    InstRecord r;
    EXPECT_FALSE(streamed.next(r));
    EXPECT_FALSE(opened->next(r));
}

TEST(TraceFileTest, ResetRewindsBothReaders)
{
    TmpDir tmp;
    const auto recs = sampleRecords(6000);
    const std::string path = writeTrace(tmp, recs);
    FileTraceSource streamed(path);
    auto opened = openTraceFile(path);
    InstRecord r;
    for (int i = 0; i < 4999; ++i) {
        ASSERT_TRUE(streamed.next(r));
        ASSERT_TRUE(opened->next(r));
    }
    EXPECT_TRUE(streamed.reset());
    EXPECT_TRUE(opened->reset());
    size_t n = 0;
    while (streamed.next(r)) {
        ASSERT_TRUE(sameRec(r, recs[n]));
        ++n;
    }
    EXPECT_EQ(n, recs.size());
    n = 0;
    while (opened->next(r)) {
        ASSERT_TRUE(sameRec(r, recs[n]));
        ++n;
    }
    EXPECT_EQ(n, recs.size());
}

TEST(TraceFileTest, SpansStopAtChunkBoundariesButNeverReturnZeroMidTrace)
{
    TmpDir tmp;
    const size_t n = TraceFileWriter::kChunkRecords + 17;
    const auto recs = sampleRecords(n);
    const std::string path = writeTrace(tmp, recs);
    auto src = openTraceFile(path);
    std::vector<InstRecord> buf(n + 100);
    const InstRecord *span = nullptr;
    size_t total = 0, calls = 0;
    size_t got;
    while ((got = src->nextSpan(span, buf.data(), buf.size())) != 0) {
        ASSERT_GT(got, 0u);
        for (size_t i = 0; i < got; ++i)
            ASSERT_TRUE(sameRec(span[i], recs[total + i]));
        total += got;
        ++calls;
    }
    EXPECT_EQ(total, n);
    EXPECT_EQ(calls, 2u) << "one span per chunk";
}

/** Replay @p path through openTraceFile to its end. */
void
replayAll(const std::string &path)
{
    auto src = openTraceFile(path);
    drainSource(*src);
}

/** Expect a TraceFileError whose message mentions @p needle. */
template <typename Fn>
void
expectReject(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected TraceFileError containing '" << needle << "'";
    } catch (const TraceFileError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual: " << e.what();
    }
}

// ----------------------------------------------------------------------
// Columnar format v2
// ----------------------------------------------------------------------

std::string
writeTraceV2(const TmpDir &tmp, const std::vector<InstRecord> &recs,
             const std::string &name = "v2.trace")
{
    const std::string path = tmp.file(name);
    TraceFileWriter w(path, kTraceFormatV2);
    w.append(recs.data(), recs.size());
    w.close();
    return path;
}

TEST(TraceV2Test, RoundTripsThroughTheStreamedReader)
{
    TmpDir tmp;
    // Multiple v2 chunks plus a partial one.
    const auto recs =
        sampleRecords(2 * TraceFileWriter::kChunkRecordsV2 + 777);
    const std::string path = writeTraceV2(tmp, recs);

    const TraceFileInfo info = probeTraceFile(path);
    EXPECT_EQ(info.version, kTraceFormatV2);
    EXPECT_EQ(info.recordCount, recs.size());
    EXPECT_EQ(info.chunkCount, 3u);

    FileTraceSource streamed(path);
    InstRecord r;
    size_t n = 0;
    while (streamed.next(r)) {
        ASSERT_TRUE(sameRec(r, recs[n])) << n;
        ++n;
    }
    EXPECT_EQ(n, recs.size());
    EXPECT_TRUE(streamed.reset());
    EXPECT_TRUE(streamed.next(r));
    EXPECT_TRUE(sameRec(r, recs[0]));
}

TEST(TraceV2Test, CompressesAtLeast3xAndIsDeterministic)
{
    TmpDir tmp;
    const auto recs = sampleRecords(50000);
    const std::string p1 = writeTrace(tmp, recs, "v1.trace");
    const std::string pa = writeTraceV2(tmp, recs, "a.trace");
    const std::string pb = writeTraceV2(tmp, recs, "b.trace");
    EXPECT_GE(fs::file_size(p1), 3 * fs::file_size(pa))
        << "v2 must be >= 3x smaller than v1";
    std::ifstream f1(pa, std::ios::binary), f2(pb, std::ios::binary);
    std::stringstream s1, s2;
    s1 << f1.rdbuf();
    s2 << f2.rdbuf();
    EXPECT_EQ(s1.str(), s2.str());
}

TEST(TraceV2Test, EmptyTraceRoundTrips)
{
    TmpDir tmp;
    const std::string path = writeTraceV2(tmp, {});
    const TraceFileInfo info = probeTraceFile(path);
    EXPECT_EQ(info.version, kTraceFormatV2);
    EXPECT_EQ(info.recordCount, 0u);
    FileTraceSource streamed(path);
    InstRecord r;
    EXPECT_FALSE(streamed.next(r));
}

TEST(TraceV2Test, OpenTraceFileReplaysV2)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);
    const std::string path = writeTraceV2(tmp, recs);
    auto src = openTraceFile(path);
    InstRecord r;
    size_t n = 0;
    while (src->next(r)) {
        ASSERT_TRUE(sameRec(r, recs[n])) << n;
        ++n;
    }
    EXPECT_EQ(n, recs.size());
}

TEST(TraceV2Test, ConvertRoundTripsBothWaysRecordIdentical)
{
    TmpDir tmp;
    const auto recs = sampleRecords(20000);
    const std::string v1 = writeTrace(tmp, recs, "orig.trace");

    const TraceConvertStats up =
        convertTraceFile(v1, tmp.file("conv.trace"), kTraceFormatV2);
    EXPECT_EQ(up.srcVersion, kTraceFormatV1);
    EXPECT_EQ(up.dstVersion, kTraceFormatV2);
    EXPECT_EQ(up.records, recs.size());
    EXPECT_GE(up.srcBytes, 3 * up.dstBytes);

    const TraceConvertStats down = convertTraceFile(
        tmp.file("conv.trace"), tmp.file("back.trace"), kTraceFormatV1);
    EXPECT_EQ(down.records, recs.size());

    // Canonical records + deterministic writer: a v1 -> v2 -> v1 round
    // trip reproduces the original file bit for bit.
    std::ifstream f1(v1, std::ios::binary),
        f2(tmp.file("back.trace"), std::ios::binary);
    std::stringstream s1, s2;
    s1 << f1.rdbuf();
    s2 << f2.rdbuf();
    EXPECT_EQ(s1.str(), s2.str());

    std::string why;
    EXPECT_TRUE(
        traceRecordsIdentical(v1, tmp.file("conv.trace"), why)) << why;
}

TEST(TraceV2Test, FlippedColumnByteRejectsNamingTheColumn)
{
    TmpDir tmp;
    const auto recs = sampleRecords(3000);
    const std::string path = writeTraceV2(tmp, recs);

    // Read the first chunk's column lengths so the patch lands on the
    // register column's width byte (offset: 48-byte file header +
    // 32-byte chunk header + cls and pc streams).
    uint32_t colBytes[6] = {};
    {
        std::ifstream f(path, std::ios::binary);
        f.seekg(48 + 8);
        f.read(reinterpret_cast<char *>(colBytes), sizeof(colBytes));
        ASSERT_TRUE(f.good());
    }
    const uint8_t badWidth = 17;
    patchBytes(path, 48 + 32 + colBytes[0] + colBytes[1], &badWidth, 1);
    expectReject([&] { probeTraceFile(path); }, "column 'reg'");
    expectReject([&] { replayAll(path); }, "column 'reg'");
}

TEST(TraceV2Test, FlippedPayloadBitsAndTruncationReject)
{
    TmpDir tmp;
    const auto recs = sampleRecords(3000);
    const std::string path = writeTraceV2(tmp, recs);
    const uint64_t full = fs::file_size(path);

    const std::string cut = tmp.file("cut.trace");
    fs::copy_file(path, cut, fs::copy_options::overwrite_existing);
    fs::resize_file(cut, full - 1);
    EXPECT_THROW(probeTraceFile(cut), TraceFileError);
    EXPECT_THROW(replayAll(cut), TraceFileError);

    // A flipped byte anywhere in a column stream must reject — either
    // a column decode error or the payload checksum catches it.
    const uint8_t junk = 0xa5;
    patchBytes(path, full - 10, &junk, 1);
    EXPECT_THROW(probeTraceFile(path), TraceFileError);
    EXPECT_THROW(replayAll(path), TraceFileError);
}

// ----------------------------------------------------------------------
// Writer atomicity
// ----------------------------------------------------------------------

TEST(TraceFileTest, WriterIsAtomicTmpUntilClose)
{
    TmpDir tmp;
    const std::string path = tmp.file("a.trace");
    {
        TraceFileWriter w(path);
        w.append(test::alu(1));
        EXPECT_FALSE(fs::exists(path));
        EXPECT_TRUE(fs::exists(path + ".tmp"));
        w.close();
    }
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(probeTraceFile(path).recordCount, 1u);
}

TEST(TraceFileTest, AbandonedWriterLeavesNoFinalFile)
{
    TmpDir tmp;
    const std::string path = tmp.file("a.trace");
    {
        TraceFileWriter w(path);
        w.append(test::alu(1));
        // No close(): simulates a crash mid-recording.
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ----------------------------------------------------------------------
// Rejection: corrupt, truncated, mismatched files
// ----------------------------------------------------------------------

TEST(TraceFileTest, RejectsMissingAndNonTraceFiles)
{
    TmpDir tmp;
    expectReject([&] { probeTraceFile(tmp.file("absent.trace")); },
                 "No such file or directory");
    std::ofstream(tmp.file("junk.trace")) << "this is not a trace";
    expectReject([&] { probeTraceFile(tmp.file("junk.trace")); },
                 "not a mica trace file");
    expectReject([&] { FileTraceSource s(tmp.file("junk.trace")); },
                 "not a mica trace file");
    expectReject([&] { openTraceFile(tmp.file("junk.trace")); },
                 "not a mica trace file");
}

TEST(TraceFileTest, RejectsVersionAndLayoutMismatch)
{
    TmpDir tmp;
    const auto recs = sampleRecords(10);

    const std::string p1 = writeTrace(tmp, recs, "v.trace");
    const uint32_t badVersion = kTraceFormatLatest + 1;
    patchBytes(p1, 8, &badVersion, sizeof(badVersion));
    expectReject([&] { probeTraceFile(p1); }, "version");
    expectReject([&] { replayAll(p1); }, "version");

    const std::string p2 = writeTrace(tmp, recs, "h.trace");
    const uint64_t badHash = kTraceLayoutHash ^ 1;
    patchBytes(p2, 16, &badHash, sizeof(badHash));
    expectReject([&] { probeTraceFile(p2); }, "layout mismatch");
    expectReject([&] { replayAll(p2); }, "layout mismatch");
}

TEST(TraceFileTest, RejectsTruncationAnywhere)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);
    const std::string path = writeTrace(tmp, recs);
    const uint64_t full = fs::file_size(path);

    for (uint64_t keep : {uint64_t(0), uint64_t(7), uint64_t(47),
                          uint64_t(48), uint64_t(56), full - 1}) {
        const std::string cut = tmp.file("cut.trace");
        fs::copy_file(path, cut, fs::copy_options::overwrite_existing);
        fs::resize_file(cut, keep);
        EXPECT_THROW(probeTraceFile(cut), TraceFileError) << keep;
        EXPECT_THROW(FileTraceSource s(cut), TraceFileError) << keep;
        EXPECT_THROW(openTraceFile(cut), TraceFileError) << keep;
    }
}

TEST(TraceFileTest, RejectsFlippedPayloadBits)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);
    const std::string path = writeTrace(tmp, recs);
    const uint8_t junk = 0xa5;
    patchBytes(path, 56 + 3, &junk, 1);     // inside the first record
    expectReject([&] { probeTraceFile(path); }, "checksum mismatch");
    expectReject([&] { replayAll(path); }, "checksum mismatch");
}

TEST(TraceFileTest, ReplayReportsEndOfTraceOnlyAfterTheChecksum)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);
    const std::string path = writeTrace(tmp, recs);
    const uint8_t junk = 0xa5;
    patchBytes(path, 56 + 3, &junk, 1);
    // Every record is lent out (the damage is only knowable at the
    // end), but the call that would report end of trace throws.
    FileTraceSource src(path);
    InstRecord r;
    for (size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(src.next(r)) << i;
    expectReject([&] { src.next(r); }, "payload checksum mismatch");
}

TEST(TraceFileTest, RejectsOutOfRangeRecordFieldsBeforeLendingThem)
{
    // A v1 record's class, source-register count and taken byte index
    // analyzer tables, so a damaged one is rejected when its chunk is
    // read — the checksum would only catch it at the end of the
    // payload, after the analyzers had seen it.
    TmpDir tmp;
    const size_t chunk = TraceFileWriter::kChunkRecords;
    const auto recs = sampleRecords(chunk + 10);
    struct Case
    {
        size_t record;
        size_t field;
        uint8_t value;
    };
    const Case cases[] = {
        {0, offsetof(InstRecord, cls), 0xff},
        {0, offsetof(InstRecord, cls), kNumInstClasses},
        {0, offsetof(InstRecord, numSrcRegs), 4},
        {0, offsetof(InstRecord, taken), 2},
        {chunk + 3, offsetof(InstRecord, cls), 0x80},
    };
    for (const Case &c : cases) {
        const std::string path = writeTrace(tmp, recs);
        // Payload offset of the record: its chunk header, every
        // earlier chunk, and the records before it in its chunk.
        const uint64_t chunks = c.record / chunk + 1;
        const uint64_t at = chunks * 8 + c.record * sizeof(InstRecord);
        patchBytes(path, 48 + at + c.field, &c.value, 1);
        const std::string want =
            "corrupt record at payload offset " + std::to_string(at);
        expectReject([&] { probeTraceFile(path); }, want);
        FileTraceSource src(path);
        InstRecord r;
        for (size_t i = 0; i < c.record / chunk * chunk; ++i)
            ASSERT_TRUE(src.next(r)) << i;
        expectReject([&] { src.next(r); }, want);
    }
}

TEST(TraceFileTest, RejectsCorruptChunkHeaderAndCountMismatch)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);

    const std::string p1 = writeTrace(tmp, recs, "cm.trace");
    const uint32_t badMagic = 0xdeadbeef;
    patchBytes(p1, 48, &badMagic, sizeof(badMagic));
    expectReject([&] { probeTraceFile(p1); }, "corrupt chunk header");
    expectReject([&] { replayAll(p1); }, "corrupt chunk header");

    const std::string p2 = writeTrace(tmp, recs, "cc.trace");
    const uint64_t badCount = 99;
    patchBytes(p2, 24, &badCount, sizeof(badCount));
    expectReject([&] { probeTraceFile(p2); }, "record count mismatch");
    expectReject([&] { replayAll(p2); }, "record count mismatch");
}

TEST(TraceFileTest, RejectsUnfinishedRecording)
{
    TmpDir tmp;
    const std::string path = writeTrace(tmp, sampleRecords(10));
    const uint64_t unfinished = kTraceUnfinished;
    patchBytes(path, 24, &unfinished, sizeof(unfinished));
    expectReject([&] { probeTraceFile(path); }, "unfinished recording");
    expectReject([&] { replayAll(path); }, "unfinished recording");
}

// ----------------------------------------------------------------------
// RecordingSource
// ----------------------------------------------------------------------

TEST(RecordingSourceTest, TeesEveryConsumedRecordExactlyOnce)
{
    TmpDir tmp;
    const auto recs = sampleRecords(1000);
    const std::string path = tmp.file("tee.trace");
    {
        VectorTraceSource inner(recs);
        TraceFileWriter w(path);
        RecordingSource tee(inner, w);

        // Mixed consumption: next, nextBatch, nextSpan, then drain.
        InstRecord r;
        InstRecord buf[64];
        const InstRecord *span = nullptr;
        ASSERT_TRUE(tee.next(r));
        EXPECT_TRUE(sameRec(r, recs[0]));
        ASSERT_EQ(tee.nextBatch(buf, 10), 10u);
        ASSERT_EQ(tee.nextSpan(span, buf, 25), 25u);
        while (tee.next(r)) {
        }
        EXPECT_EQ(w.recordCount(), recs.size());
        w.close();
    }
    FileTraceSource replay(path);
    InstRecord r;
    size_t i = 0;
    while (replay.next(r)) {
        ASSERT_TRUE(sameRec(r, recs[i])) << i;
        ++i;
    }
    EXPECT_EQ(i, recs.size());
}

TEST(RecordingSourceTest, IsSinglePass)
{
    TmpDir tmp;
    VectorTraceSource inner(sampleRecords(10));
    TraceFileWriter w(tmp.file("x.trace"));
    RecordingSource tee(inner, w);
    InstRecord r;
    tee.next(r);
    EXPECT_FALSE(tee.reset());     // a rewind would re-record
    w.abort();
}

// ----------------------------------------------------------------------
// The prefix contract: next / nextBatch / nextSpan interleave onto
// one stream, same records, same order — for every source.
// ----------------------------------------------------------------------

/** Drain a source through a fixed mixed-call schedule. */
std::vector<InstRecord>
drainInterleaved(TraceSource &src, size_t cap)
{
    std::vector<InstRecord> out;
    InstRecord buf[97];
    const InstRecord *span = nullptr;
    int phase = 0;
    while (out.size() < cap) {
        size_t got = 0;
        switch (phase % 4) {
          case 0: {
            InstRecord r;
            if (src.next(r)) {
                out.push_back(r);
                got = 1;
            }
            break;
          }
          case 1:
            got = src.nextBatch(buf, 7);
            out.insert(out.end(), buf, buf + got);
            break;
          case 2:
            got = src.nextSpan(span, buf, 53);
            out.insert(out.end(), span, span + got);
            break;
          case 3:
            got = src.nextBatch(buf, 97);
            out.insert(out.end(), buf, buf + got);
            break;
        }
        if (got == 0 && phase % 4 == 0)
            break;      // next() said end-of-trace: done
        ++phase;
    }
    return out;
}

/** Drain a source via next() only. */
std::vector<InstRecord>
drainPlain(TraceSource &src, size_t cap)
{
    std::vector<InstRecord> out;
    InstRecord r;
    while (out.size() < cap && src.next(r))
        out.push_back(r);
    return out;
}

void
expectPrefixContract(TraceSource &a, TraceSource &b, size_t cap)
{
    const auto plain = drainPlain(a, cap);
    const auto mixed = drainInterleaved(b, cap);
    ASSERT_GE(mixed.size(), plain.size());
    ASSERT_GE(plain.size(), std::min<size_t>(cap, mixed.size()));
    const size_t n = std::min(plain.size(), mixed.size());
    for (size_t i = 0; i < n; ++i)
        ASSERT_TRUE(sameRec(plain[i], mixed[i])) << "record " << i;
}

TEST(PrefixContractTest, VectorSource)
{
    const auto recs = sampleRecords(2000);
    VectorTraceSource a(recs), b(recs);
    expectPrefixContract(a, b, recs.size());
}

TEST(PrefixContractTest, RandomSource)
{
    RandomTraceParams p;
    p.numInsts = 2000;
    p.seed = 11;
    RandomTraceSource a(p), b(p);
    expectPrefixContract(a, b, p.numInsts);
}

TEST(PrefixContractTest, Interpreter)
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "CommBench/tcp.tcp");
    ASSERT_NE(e, nullptr);
    const isa::Program prog = e->build();
    isa::Interpreter a(prog), b(prog);
    expectPrefixContract(a, b, 20000);
}

TEST(PrefixContractTest, FileSourcesBothFormats)
{
    TmpDir tmp;
    const auto recs =
        sampleRecords(TraceFileWriter::kChunkRecords + 321);
    const std::string path = writeTrace(tmp, recs);

    FileTraceSource fa(path), fb(path);
    expectPrefixContract(fa, fb, recs.size());

    // And the columnar format's reader observes the same stream.
    const std::string v2 = tmp.file("v2.trace");
    {
        TraceFileWriter w(v2, kTraceFormatV2);
        w.append(recs.data(), recs.size());
        w.close();
    }
    FileTraceSource va(v2), vb(v2);
    expectPrefixContract(va, vb, recs.size());
}

// ----------------------------------------------------------------------
// Text traces
// ----------------------------------------------------------------------

TEST(TextTraceTest, ParsesLenientlyWithDefaults)
{
    std::istringstream in(
        "# hand-made trace\n"
        "\n"
        "load pc=0x400000 addr=0x10000 size=4 dst=3 src=1:2\n"
        "ALU, dst=4, src=3\n"
        "branch taken=1 target=0x400000 bogus=field\n"
        "jmp\n"
        "st addr=64\n");
    const auto recs = parseTextTrace(in, "test");
    ASSERT_EQ(recs.size(), 5u);
    EXPECT_EQ(recs[0].cls, InstClass::Load);
    EXPECT_EQ(recs[0].memAddr, 0x10000u);
    EXPECT_EQ(recs[0].memSize, 4);
    EXPECT_EQ(recs[0].dstReg, 3);
    EXPECT_EQ(recs[0].numSrcRegs, 2);
    EXPECT_EQ(recs[0].srcRegs[0], 1);
    EXPECT_EQ(recs[0].srcRegs[1], 2);
    EXPECT_EQ(recs[1].cls, InstClass::IntAlu);    // commas, case
    EXPECT_EQ(recs[1].dstReg, 4);
    EXPECT_EQ(recs[2].cls, InstClass::Branch);
    EXPECT_TRUE(recs[2].taken);
    EXPECT_EQ(recs[2].target, 0x400000u);
    EXPECT_EQ(recs[3].cls, InstClass::Jump);
    EXPECT_TRUE(recs[3].taken);                   // unconditional default
    EXPECT_EQ(recs[4].cls, InstClass::Store);
    EXPECT_EQ(recs[4].memSize, 8);                // default access size
    // Sequential default PCs where none was given.
    EXPECT_EQ(recs[1].pc, 0x400000u + 4);
    EXPECT_EQ(recs[3].pc, 0x400000u + 12);
}

TEST(TextTraceTest, UnknownClassRejectsWithLineNumber)
{
    std::istringstream in("alu\nwizardry dst=1\n");
    expectReject([&] { parseTextTrace(in, "t.csv"); },
                 "line 2: unknown instruction class 'wizardry'");
}

TEST(TextTraceTest, OpenTraceFileDispatchesOnExtension)
{
    TmpDir tmp;
    std::ofstream(tmp.file("hand.csv")) << "alu dst=1\nload addr=8\n";
    auto text = openTraceFile(tmp.file("hand.csv"));
    InstRecord r;
    ASSERT_TRUE(text->next(r));
    EXPECT_EQ(r.cls, InstClass::IntAlu);

    const std::string bin = writeTrace(tmp, sampleRecords(3));
    auto binary = openTraceFile(bin);
    ASSERT_TRUE(binary->next(r));
}

// ----------------------------------------------------------------------
// Trace directories as benchmarks
// ----------------------------------------------------------------------

TEST(TraceBenchmarksTest, SurfacesNamesAndRegistryOrder)
{
    TmpDir tmp;
    // Deliberately created in anti-registry order; MiBench/sha.large
    // follows CommBench/tcp.tcp in Table I.
    writeTrace(tmp, sampleRecords(10), "MiBench__sha.large.trace");
    writeTrace(tmp, sampleRecords(10), "CommBench__tcp.tcp.trace");
    std::ofstream(tmp.file("zcustom.txt")) << "alu dst=1\n";
    std::ofstream(tmp.file("notes.md")) << "ignored\n";

    const auto entries = workloads::traceBenchmarks(tmp.dir);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].info.fullName(), "CommBench/tcp.tcp");
    EXPECT_EQ(entries[1].info.fullName(), "MiBench/sha.large");
    // Unknown names trail, in the synthetic "traces" suite.
    EXPECT_EQ(entries[2].info.suite, "traces");
    EXPECT_EQ(entries[2].info.program, "zcustom");

    // Factories open fresh sources positioned at the start.
    for (const auto &e : entries) {
        ASSERT_TRUE(static_cast<bool>(e.source));
        auto src = e.source();
        InstRecord r;
        EXPECT_TRUE(src->next(r));
    }
}

TEST(TraceBenchmarksTest, RejectsCorruptFilesAndMissingDirs)
{
    TmpDir tmp;
    EXPECT_THROW(workloads::traceBenchmarks(tmp.dir + "/nope"),
                 TraceFileError);
    std::ofstream(tmp.file("bad.trace")) << "garbage";
    EXPECT_THROW(workloads::traceBenchmarks(tmp.dir), TraceFileError);
}

TEST(TraceBenchmarksTest, RejectsBudgetBeyondTheRecording)
{
    TmpDir tmp;
    writeTrace(tmp, sampleRecords(500), "CommBench__tcp.tcp.trace");
    // Budget within (or at) the recorded length is fine; 0 means
    // "replay everything recorded".
    EXPECT_EQ(workloads::traceBenchmarks(tmp.dir, 500).size(), 1u);
    EXPECT_EQ(workloads::traceBenchmarks(tmp.dir, 0).size(), 1u);
    // Beyond it, replay would come up short of direct interpretation.
    expectReject(
        [&] { workloads::traceBenchmarks(tmp.dir, 501); },
        "silently diverge");
}

TEST(TraceBenchmarksTest, RejectsDuplicateBenchmarkNames)
{
    TmpDir tmp;
    writeTrace(tmp, sampleRecords(10), "CommBench__tcp.tcp.trace");
    std::ofstream(tmp.file("CommBench__tcp.tcp.csv")) << "alu dst=1\n";
    expectReject([&] { workloads::traceBenchmarks(tmp.dir); },
                 "duplicate trace benchmark 'CommBench/tcp.tcp'");
}

TEST(TraceBenchmarksTest, ContentStampTracksTraceBytes)
{
    TmpDir tmp;
    writeTrace(tmp, sampleRecords(100, 1), "CommBench__tcp.tcp.trace");
    uint64_t s1 = 0, s2 = 0, s3 = 0;
    workloads::traceBenchmarks(tmp.dir, 0, &s1);
    workloads::traceBenchmarks(tmp.dir, 0, &s2);
    EXPECT_EQ(s1, s2);      // stable for unchanged contents
    // Re-record the same benchmark with different records: the name
    // is identical but the stamp must move (this is what keys the
    // profile store to trace contents, not the directory path).
    writeTrace(tmp, sampleRecords(100, 2), "CommBench__tcp.tcp.trace");
    workloads::traceBenchmarks(tmp.dir, 0, &s3);
    EXPECT_NE(s1, s3);
}

// ----------------------------------------------------------------------
// The load-bearing contract: replayed profiles are byte-identical to
// interpreting the program directly, for every analyzer, at any
// batch path, in either format.
// ----------------------------------------------------------------------

void
expectProfilesIdentical(const MicaProfile &a, const MicaProfile &b)
{
    EXPECT_EQ(a.instCount, b.instCount);
    for (size_t i = 0; i < kNumMicaChars; ++i)
        EXPECT_EQ(a.values[i], b.values[i]) << "characteristic " << i;
}

TEST(TraceReplayTest, ReplayedProfilesMatchInterpreterBitForBit)
{
    TmpDir tmp;
    MicaRunnerConfig rc;
    rc.maxInsts = 30000;
    for (const char *name : {"CommBench/tcp.tcp", "MiBench/sha.large",
                             "SPEC2000/gzip.log"}) {
        const auto *e =
            workloads::BenchmarkRegistry::instance().find(name);
        ASSERT_NE(e, nullptr) << name;
        const isa::Program prog = e->build();

        // Record under the same budget the profiling run uses.
        const std::string path = tmp.file("r.trace");
        {
            isa::Interpreter interp(prog);
            TraceFileWriter w(path);
            RecordingSource tee(interp, w);
            std::vector<InstRecord> buf(1024);
            uint64_t n = 0;
            const InstRecord *span = nullptr;
            size_t got;
            while (n < rc.maxInsts &&
                   (got = tee.nextSpan(
                        span, buf.data(),
                        std::min<uint64_t>(buf.size(),
                                           rc.maxInsts - n))) != 0)
                n += got;
            w.close();
        }

        isa::Interpreter direct(prog);
        const MicaProfile ref = collectMicaProfile(direct, name, rc);

        FileTraceSource streamed(path);
        expectProfilesIdentical(
            collectMicaProfile(streamed, name, rc), ref);

        // The columnar format replays the same stream.
        const std::string v2 = tmp.file("r2.trace");
        convertTraceFile(path, v2, kTraceFormatV2);
        FileTraceSource columnar(v2);
        expectProfilesIdentical(collectMicaProfile(columnar, name, rc),
                                ref);

        // The per-record reference engine path sees the same stream.
        MicaRunnerConfig perRecord = rc;
        perRecord.engineBatch = 0;
        FileTraceSource streamed2(path);
        expectProfilesIdentical(
            collectMicaProfile(streamed2, name, perRecord), ref);

        // And the HPC characterization.
        direct.reset();
        const auto hpcRef =
            uarch::collectHwProfile(direct, name, rc.maxInsts);
        ASSERT_TRUE(streamed.reset());
        const auto hpcReplay =
            uarch::collectHwProfile(streamed, name, rc.maxInsts);
        const auto va = hpcRef.toVector(), vb = hpcReplay.toVector();
        ASSERT_EQ(va.size(), vb.size());
        for (size_t i = 0; i < va.size(); ++i)
            EXPECT_EQ(va[i], vb[i]) << "hpc metric " << i;
    }
}

TEST(TraceReplayTest, DatasetFromTracesMatchesDirectAndIsJobsInvariant)
{
    TmpDir tmp;
    const std::string traceDir = tmp.dir + "/traces";
    const uint64_t budget = 20000;

    // Record two registry benchmarks the way `mica trace record` does.
    for (const char *name : {"CommBench/tcp.tcp", "CommBench/frag.frag"}) {
        const auto *e =
            workloads::BenchmarkRegistry::instance().find(name);
        ASSERT_NE(e, nullptr);
        std::string stem = name;
        stem.replace(stem.find('/'), 1, "__");
        const isa::Program prog = e->build();
        isa::Interpreter interp(prog);
        TraceFileWriter w(traceDir + "/" + stem + ".trace");
        RecordingSource tee(interp, w);
        std::vector<InstRecord> buf(1024);
        uint64_t n = 0;
        const InstRecord *span = nullptr;
        size_t got;
        while (n < budget &&
               (got = tee.nextSpan(span, buf.data(),
                                   std::min<uint64_t>(
                                       buf.size(), budget - n))) != 0)
            n += got;
        w.close();
    }

    experiments::DatasetConfig direct;
    direct.maxInsts = budget;
    direct.suites = {"CommBench"};
    auto directDs = experiments::collectSuiteDataset(direct);

    experiments::DatasetConfig replay;
    replay.maxInsts = budget;
    replay.traceDir = traceDir;
    auto replayDs = experiments::collectSuiteDataset(replay);

    ASSERT_EQ(replayDs.benchmarks.size(), 2u);
    for (size_t r = 0; r < replayDs.benchmarks.size(); ++r) {
        const size_t d =
            directDs.indexOf(replayDs.benchmarks[r].fullName());
        ASSERT_NE(d, static_cast<size_t>(-1));
        expectProfilesIdentical(replayDs.micaProfiles[r],
                                directDs.micaProfiles[d]);
    }

    // jobs=8 replays the identical dataset.
    experiments::DatasetConfig replay8 = replay;
    replay8.jobs = 8;
    auto replay8Ds = experiments::collectSuiteDataset(replay8);
    ASSERT_EQ(replay8Ds.benchmarks.size(), replayDs.benchmarks.size());
    for (size_t r = 0; r < replayDs.benchmarks.size(); ++r) {
        expectProfilesIdentical(replay8Ds.micaProfiles[r],
                                replayDs.micaProfiles[r]);
        const auto va = replayDs.hpcProfiles[r].toVector();
        const auto vb = replay8Ds.hpcProfiles[r].toVector();
        for (size_t i = 0; i < va.size(); ++i)
            EXPECT_EQ(va[i], vb[i]);
    }
}

TEST(TraceReplayTest, ReRecordedTraceInvalidatesTheProfileStore)
{
    TmpDir tmp;
    const std::string traceDir = tmp.dir + "/traces";
    const std::string cacheDir = tmp.dir + "/cache";
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "CommBench/tcp.tcp");
    ASSERT_NE(e, nullptr);
    const isa::Program prog = e->build();

    auto record = [&](uint64_t budget) {
        isa::Interpreter interp(prog);
        TraceFileWriter w(traceDir + "/CommBench__tcp.tcp.trace");
        RecordingSource tee(interp, w);
        std::vector<InstRecord> buf(1024);
        uint64_t n = 0;
        const InstRecord *span = nullptr;
        size_t got;
        while (n < budget &&
               (got = tee.nextSpan(span, buf.data(),
                                   std::min<uint64_t>(
                                       buf.size(), budget - n))) != 0)
            n += got;
        w.close();
    };

    experiments::DatasetConfig cfg;
    cfg.traceDir = traceDir;
    cfg.cacheDir = cacheDir;    // budget 0: replay whatever is there

    record(15000);
    const auto first = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(first.micaProfiles.size(), 1u);
    EXPECT_EQ(first.micaProfiles[0].instCount, 15000u);

    // Same directory, same config — but the trace bytes changed. The
    // content-keyed store must re-profile, not serve the stale 15000-
    // record profile.
    record(18000);
    const auto second = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(second.micaProfiles.size(), 1u);
    EXPECT_EQ(second.micaProfiles[0].instCount, 18000u);
}

TEST(TraceReplayTest, UnknownSuiteFilterRejectsInsteadOfEmptyDataset)
{
    experiments::DatasetConfig cfg;
    cfg.maxInsts = 1000;
    cfg.suites = {"CommBnech"};     // typo'd suite
    EXPECT_THROW(experiments::collectSuiteDataset(cfg),
                 std::invalid_argument);
}

// ----------------------------------------------------------------------
// One pass: replay jobs verify the payload they read
// ----------------------------------------------------------------------

/** @return the current value of counter @p name (0 if never made). */
int64_t
counterValue(const char *name)
{
    const auto snap = obs::snapshotMetrics();
    const auto it = snap.metrics.find(name);
    return it == snap.metrics.end() ? 0 : it->second.value;
}

/** Offset of a byte inside the last record of a v1 trace. */
uint64_t
lastRecordByte(const std::string &path)
{
    return fs::file_size(path) - 10;
}

TEST(TraceReplayTest, FlipPastTheBudgetStillFailsTheReplayJob)
{
    TmpDir tmp;
    const std::string traceDir = tmp.dir + "/traces";
    fs::create_directories(traceDir);
    // Three full chunks; the budget stops the analyzers inside the
    // first one, and the flipped byte sits in the last record.
    const std::string path =
        writeTrace(tmp, sampleRecords(3 * TraceFileWriter::kChunkRecords),
                   "traces/CommBench__tcp.tcp.trace");
    const uint8_t junk = 0xa5;
    patchBytes(path, lastRecordByte(path), &junk, 1);

    for (unsigned jobs : {1u, 8u}) {
        experiments::DatasetConfig cfg;
        cfg.maxInsts = 1000;
        cfg.traceDir = traceDir;
        cfg.jobs = jobs;
        const auto ds = experiments::collectSuiteDataset(cfg);
        EXPECT_TRUE(ds.benchmarks.empty()) << jobs;
        EXPECT_TRUE(ds.micaProfiles.empty()) << jobs;
        ASSERT_EQ(ds.failures.size(), 1u) << jobs;
        EXPECT_EQ(ds.failures[0].bench, "CommBench/tcp.tcp");
        EXPECT_NE(ds.failures[0].phase, "scan");
        EXPECT_NE(ds.failures[0].error.find("payload checksum mismatch"),
                  std::string::npos)
            << ds.failures[0].error;
    }
}

TEST(TraceReplayTest, CorruptPayloadQuarantinesAtJobTimeWithSameSurvivors)
{
    TmpDir tmp;
    const std::string clean = tmp.dir + "/clean";
    const std::string dirty = tmp.dir + "/dirty";
    fs::create_directories(clean);
    fs::create_directories(dirty);
    const char *names[] = {"CommBench__tcp.tcp.trace",
                           "CommBench__frag.frag.trace",
                           "MiBench__sha.large.trace"};
    for (size_t i = 0; i < 3; ++i) {
        const auto recs = sampleRecords(6000, 20 + i);
        writeTrace(tmp, recs, std::string("clean/") + names[i]);
        writeTrace(tmp, recs, std::string("dirty/") + names[i]);
    }
    const std::string bad = dirty + "/CommBench__frag.frag.trace";
    const std::string good = clean + "/CommBench__frag.frag.trace";

    experiments::DatasetConfig ref;
    ref.maxInsts = 5000;
    ref.traceDir = clean;
    const auto refDs = experiments::collectSuiteDataset(ref);
    ASSERT_EQ(refDs.benchmarks.size(), 3u);

    // Damage inside the first record: a byte the checksum catches at
    // the end of the payload, and bytes the analyzers index by (class,
    // source-register count, taken), which must be rejected before
    // any analyzer sees them.
    struct Damage
    {
        uint64_t offset;
        uint8_t value;
        const char *error;
    };
    const Damage damages[] = {
        {100, 0xa5, "payload checksum mismatch"},
        {56 + offsetof(InstRecord, cls), 0xff,
         "corrupt record at payload offset 8"},
        {56 + offsetof(InstRecord, numSrcRegs), 0xff,
         "corrupt record at payload offset 8"},
        {56 + offsetof(InstRecord, taken), 0x02,
         "corrupt record at payload offset 8"},
    };
    for (const Damage &d : damages) {
        fs::copy_file(good, bad, fs::copy_options::overwrite_existing);
        patchBytes(bad, d.offset, &d.value, 1);
        for (unsigned jobs : {1u, 8u}) {
            experiments::DatasetConfig cfg = ref;
            cfg.traceDir = dirty;
            cfg.jobs = jobs;
            const int64_t before = counterValue("pipeline.quarantined");
            const auto ds = experiments::collectSuiteDataset(cfg);
#if MICA_OBS
            EXPECT_EQ(counterValue("pipeline.quarantined") - before, 1);
#else
            (void)before;
#endif
            ASSERT_EQ(ds.failures.size(), 1u) << jobs;
            EXPECT_EQ(ds.failures[0].bench, "CommBench/frag.frag");
            EXPECT_EQ(ds.failures[0].phase, "mica");     // job time
            EXPECT_NE(ds.failures[0].error.find(d.error), std::string::npos)
                << ds.failures[0].error;
            // The survivors are exactly the clean run's other two rows.
            ASSERT_EQ(ds.benchmarks.size(), 2u) << jobs;
            for (size_t r = 0; r < ds.benchmarks.size(); ++r) {
                const size_t k = refDs.indexOf(ds.benchmarks[r].fullName());
                ASSERT_NE(k, static_cast<size_t>(-1));
                expectProfilesIdentical(ds.micaProfiles[r],
                                        refDs.micaProfiles[k]);
                EXPECT_EQ(ds.hpcProfiles[r].toVector(),
                          refDs.hpcProfiles[k].toVector());
            }
        }
    }
}

/** Bytes of a trace's first chunk, header included (v1 or v2). */
uint64_t
firstChunkBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char head[48 + 32] = {};
    in.read(head, sizeof(head));
    uint32_t version = 0, count = 0;
    std::memcpy(&version, head + 8, sizeof(version));
    std::memcpy(&count, head + 48 + 4, sizeof(count));
    if (version == kTraceFormatV1)
        return 8 + uint64_t(count) * sizeof(InstRecord);
    uint64_t bytes = 32;
    for (size_t c = 0; c < 6; ++c) {
        uint32_t col = 0;
        std::memcpy(&col, head + 48 + 8 + 4 * c, sizeof(col));
        bytes += col;
    }
    return bytes;
}

TEST(TraceReplayTest, ColdSweepDrainsEachPayloadOnceWarmStoreReadsNone)
{
#if !MICA_OBS
    GTEST_SKIP() << "needs the telemetry counters";
#endif
    TmpDir tmp;
    const std::string traceDir = tmp.dir + "/traces";
    fs::create_directories(traceDir);
    uint64_t payload = 0, firstChunks = 0;
    const char *names[] = {"CommBench__tcp.tcp.trace",
                           "CommBench__frag.frag.trace"};
    for (size_t i = 0; i < 2; ++i) {
        // One v1 file of three chunks and one single-chunk v2 file.
        const auto recs = sampleRecords(9000, 40 + i);
        const std::string path =
            i == 0 ? writeTrace(tmp, recs, std::string("traces/") + names[i])
                   : writeTraceV2(tmp, recs,
                                  std::string("traces/") + names[i]);
        payload += fs::file_size(path) - 48;
        firstChunks += firstChunkBytes(path);
    }

    for (uint64_t budget : {uint64_t{0}, uint64_t{2000}}) {
        for (unsigned jobs : {1u, 4u}) {
            experiments::DatasetConfig cfg;
            cfg.maxInsts = budget;
            cfg.traceDir = traceDir;
            cfg.jobs = jobs;
            cfg.cacheDir = tmp.dir + "/cache" + std::to_string(budget) +
                           "_" + std::to_string(jobs);
            int64_t before = counterValue("trace.bytes.read");
            const auto cold = experiments::collectSuiteDataset(cfg);
            ASSERT_EQ(cold.micaProfiles.size(), 2u);
            // The scan reads headers only. A whole-trace budget has
            // both jobs read every payload; a budget inside the first
            // chunk has the mica job drain the payload once while the
            // hpc job stops after the first chunk.
            const uint64_t want =
                budget == 0 ? 2 * payload : payload + firstChunks;
            EXPECT_EQ(counterValue("trace.bytes.read") - before,
                      static_cast<int64_t>(want))
                << "budget=" << budget << " jobs=" << jobs;

            before = counterValue("trace.bytes.read");
            const auto warm = experiments::collectSuiteDataset(cfg);
            ASSERT_EQ(warm.micaProfiles.size(), 2u);
            EXPECT_EQ(counterValue("trace.bytes.read") - before, 0)
                << "budget=" << budget << " jobs=" << jobs;
        }
    }
}

TEST(TraceReplayTest, StoreKeySeparatesTraceAndInterpreterRuns)
{
    pipeline::StoreKey interp;
    interp.maxInsts = 1000;
    pipeline::StoreKey traced = interp;
    traced.traceDir = "some/dir";
    EXPECT_NE(interp.describe(), traced.describe());
    // Interpreter-keyed stores keep their pre-trace-era key strings.
    EXPECT_EQ(interp.describe().find("traces="), std::string::npos);
}

} // namespace
} // namespace mica
