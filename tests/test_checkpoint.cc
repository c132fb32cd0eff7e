/**
 * @file
 * Checkpoint file-format tests: roundtrips, corruption detection,
 * and end-to-end resume of a SoCFlowTrainer across "process"
 * boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "ckpt/replicated_store.hh"
#include "core/checkpoint.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "sim/cluster.hh"

using namespace socflow;
using namespace socflow::core;

namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

data::DataBundle
tinyBundle()
{
    data::SyntheticParams p;
    p.name = "ckpt";
    p.classes = 4;
    p.channels = 1;
    p.height = 8;
    p.width = 8;
    p.trainSamples = 192;
    p.testSamples = 64;
    p.noise = 0.3;
    p.seed = 31;
    return data::makeSynthetic(p);
}

SoCFlowConfig
tinyConfig()
{
    SoCFlowConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = 8;
    cfg.numGroups = 2;
    cfg.groupBatch = 16;
    return cfg;
}

} // namespace

TEST(CheckpointFile, RoundTripPreservesBytes)
{
    const std::string path = tempPath("roundtrip.ckpt");
    std::vector<std::uint8_t> blob = {1, 2, 3, 254, 255, 0, 42};
    writeCheckpointFile(path, blob);
    EXPECT_TRUE(isCheckpointFile(path));
    EXPECT_EQ(readCheckpointFile(path), blob);
    std::remove(path.c_str());
}

TEST(CheckpointFile, EmptyPayloadRoundTrips)
{
    const std::string path = tempPath("empty.ckpt");
    writeCheckpointFile(path, {});
    EXPECT_TRUE(isCheckpointFile(path));
    EXPECT_TRUE(readCheckpointFile(path).empty());
    std::remove(path.c_str());
}

TEST(CheckpointFile, ChecksumIsDeterministicAndSensitive)
{
    std::vector<std::uint8_t> a = {1, 2, 3};
    std::vector<std::uint8_t> b = {1, 2, 4};
    EXPECT_EQ(checkpointChecksum(a), checkpointChecksum(a));
    EXPECT_NE(checkpointChecksum(a), checkpointChecksum(b));
}

TEST(CheckpointFile, MissingFileIsFatal)
{
    EXPECT_EXIT(readCheckpointFile("/nonexistent/nowhere.ckpt"),
                ::testing::ExitedWithCode(1), "cannot open");
    EXPECT_FALSE(isCheckpointFile("/nonexistent/nowhere.ckpt"));
}

TEST(CheckpointFile, BadMagicIsFatal)
{
    const std::string path = tempPath("junk.ckpt");
    std::ofstream(path) << "this is not a checkpoint at all........";
    EXPECT_FALSE(isCheckpointFile(path));
    EXPECT_EXIT(readCheckpointFile(path), ::testing::ExitedWithCode(1),
                "not a SoCFlow checkpoint");
    std::remove(path.c_str());
}

TEST(CheckpointFile, CorruptPayloadDetected)
{
    const std::string path = tempPath("corrupt.ckpt");
    writeCheckpointFile(path, {10, 20, 30, 40, 50});
    // Flip one payload byte after the 24-byte header.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(26);
        const char evil = 99;
        f.write(&evil, 1);
    }
    EXPECT_FALSE(isCheckpointFile(path));
    EXPECT_EXIT(readCheckpointFile(path), ::testing::ExitedWithCode(1),
                "checksum mismatch");
    std::remove(path.c_str());
}

TEST(CheckpointFile, TruncatedPayloadDetected)
{
    const std::string path = tempPath("short.ckpt");
    writeCheckpointFile(path, std::vector<std::uint8_t>(100, 7));
    // Truncate to header + half the payload.
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        bytes.resize(24 + 50);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(isCheckpointFile(path));
    EXPECT_EXIT(readCheckpointFile(path), ::testing::ExitedWithCode(1),
                "truncated");
    std::remove(path.c_str());
}

TEST(CheckpointFile, CorruptLengthFieldRejected)
{
    // The payload length sits at bytes 8-15. A corrupt length must be
    // refused like any other damage -- never trusted to size a read
    // or an allocation.
    const std::string path = tempPath("badlen.ckpt");
    for (int byte = 8; byte < 16; ++byte) {
        writeCheckpointFile(path, {10, 20, 30, 40, 50});
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekg(byte);
            char c = 0;
            f.read(&c, 1);
            c = static_cast<char>(c ^ 0x80);
            f.seekp(byte);
            f.write(&c, 1);
        }
        EXPECT_FALSE(isCheckpointFile(path)) << "length byte " << byte;
        EXPECT_EXIT(readCheckpointFile(path),
                    ::testing::ExitedWithCode(1), "")
            << "length byte " << byte;
    }
    std::remove(path.c_str());
}

// --------------------------------------------- trainer blob validation

namespace {

/** One trained trainer + a valid checkpoint blob for corruption. */
struct BlobFixture {
    data::DataBundle bundle = tinyBundle();
    SoCFlowTrainer trainer{tinyConfig(), bundle};
    std::vector<std::uint8_t> blob;

    BlobFixture()
    {
        trainer.runEpoch();
        blob = trainer.saveCheckpoint();
    }

    /** Load must throw, leaving the trainer usable. */
    void
    expectRejected(const std::vector<std::uint8_t> &bad,
                   const char *what_substr)
    {
        const auto weightsBefore = trainer.globalWeights();
        const std::size_t epochsBefore = trainer.epochsDone();
        try {
            trainer.loadCheckpoint(bad);
            FAIL() << "expected CheckpointError (" << what_substr
                   << ")";
        } catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find(what_substr),
                      std::string::npos)
                << "actual message: " << e.what();
        }
        // State untouched; training still works.
        EXPECT_EQ(trainer.globalWeights(), weightsBefore);
        EXPECT_EQ(trainer.epochsDone(), epochsBefore);
        EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
    }
};

} // namespace

TEST(TrainerCheckpointBlob, TruncatedBufferRejected)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad(fx.blob.begin(),
                                  fx.blob.begin() + 11);
    fx.expectRejected(bad, "truncated");
}

TEST(TrainerCheckpointBlob, EmptyBufferRejected)
{
    BlobFixture fx;
    fx.expectRejected({}, "truncated");
}

TEST(TrainerCheckpointBlob, BitFlipInWeightsRejected)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad = fx.blob;
    bad[bad.size() / 2] ^= 0x40;  // flip one bit mid-payload
    fx.expectRejected(bad, "checksum");
}

TEST(TrainerCheckpointBlob, BitFlipInHeaderRejected)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad = fx.blob;
    bad[2] ^= 0x01;  // corrupt the magic itself
    fx.expectRejected(bad, "magic");
}

TEST(TrainerCheckpointBlob, WrongSizeBufferRejected)
{
    BlobFixture fx;
    // One trailing byte too many: the declared weight count no
    // longer matches the buffer length.
    std::vector<std::uint8_t> bad = fx.blob;
    bad.push_back(0);
    fx.expectRejected(bad, "size mismatch");
}

TEST(TrainerCheckpointBlob, ForeignModelSizeRejected)
{
    BlobFixture fx;
    // A valid blob from a *different* model (bigger MLP input):
    // magic and checksum pass, but the weight count must not match.
    data::SyntheticParams p;
    p.name = "other";
    p.classes = 7;
    p.channels = 1;
    p.height = 12;
    p.width = 12;
    p.trainSamples = 64;
    p.testSamples = 32;
    p.seed = 5;
    data::DataBundle other = data::makeSynthetic(p);
    SoCFlowTrainer foreign(tinyConfig(), other);
    fx.expectRejected(foreign.saveCheckpoint(), "model");
}

TEST(TrainerCheckpointBlob, ValidBlobStillLoadsAfterRejections)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad = fx.blob;
    bad[bad.size() / 2] ^= 0x40;
    EXPECT_THROW(fx.trainer.loadCheckpoint(bad), CheckpointError);
    EXPECT_NO_THROW(fx.trainer.loadCheckpoint(fx.blob));
    EXPECT_EQ(fx.trainer.epochsDone(), 1u);
}

TEST(TrainerCheckpointBlob, BlobIsSealedEnvelopeOfFixedSize)
{
    // Pins the blob format: a kBlobMagic envelope of exactly
    // 40 + 4n bytes for n weights -- the byte count replica writes
    // are priced on.
    BlobFixture fx;
    const std::size_t n = fx.trainer.globalWeights().size();
    EXPECT_EQ(fx.blob.size(), 40 + 4 * n);
    std::vector<std::uint8_t> payload;
    ASSERT_NO_THROW(payload = openEnvelope(kBlobMagic, fx.blob));
    EXPECT_EQ(payload.size(), 16 + 4 * n);
}

// ------------------------------------------------- bit-flip fuzzing

TEST(TrainerCheckpointBlob, EverySingleByteCorruptionRejected)
{
    // Exhaustive single-byte fuzz over a real trainer checkpoint:
    // whatever byte is damaged -- magic, epoch, alpha, weight count,
    // any weight, or the checksum itself -- loadCheckpoint must raise
    // a typed CheckpointError. No corruption ever loads silently.
    BlobFixture fx;
    for (std::size_t i = 0; i < fx.blob.size(); ++i) {
        std::vector<std::uint8_t> bad = fx.blob;
        bad[i] ^= 0xff;
        EXPECT_THROW(fx.trainer.loadCheckpoint(bad), CheckpointError)
            << "byte " << i << " corrupted but the blob loaded";
    }
    // The pristine blob still loads: the fuzz loop never poisoned
    // the trainer.
    EXPECT_NO_THROW(fx.trainer.loadCheckpoint(fx.blob));
}

namespace {

/** 3-rack fleet for the replicated-store fuzz runs. */
sim::ClusterConfig
fuzzFleetConfig()
{
    sim::ClusterConfig cfg;
    cfg.numRacks = 3;
    cfg.boardsPerRack = 2;
    cfg.socsPerBoard = 2;
    cfg.numSocs = cfg.numRacks * cfg.socsPerRack();
    return cfg;
}

} // namespace

TEST(ReplicatedManifestFuzz, EveryManifestByteCorruptionIsTyped)
{
    // Exhaustive single-byte fuzz over the replicated store's
    // generation manifest, corrupting EVERY copy at once (so no
    // intact sibling can mask the damage): restore must raise a
    // typed CheckpointError -- a damaged manifest never elects a
    // checkpoint.
    sim::Cluster cluster(fuzzFleetConfig());
    BlobFixture fx;
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore probe(cluster, sc);
    ASSERT_TRUE(probe.write(1, fx.blob).acked);
    const std::size_t manifestLen = probe.manifestData(0).size();

    for (std::size_t i = 0; i < manifestLen; ++i) {
        ckpt::ReplicatedCkptStore store(cluster, sc);
        ASSERT_TRUE(store.write(1, fx.blob).acked);
        store.manifestData(0)[i] ^= 0xff;
        store.manifestData(1)[i] ^= 0xff;
        EXPECT_THROW(store.restore(0), CheckpointError)
            << "manifest byte " << i
            << " corrupted in every copy yet restore succeeded";
    }
}

TEST(ReplicatedDataFuzz, CorruptDataEnvelopeNeverRestoresSilently)
{
    // Single-byte fuzz over the sealed replica data envelope,
    // corrupting every copy: header and checksum regions are swept
    // exhaustively, the payload by stride (the checksum math is
    // position-independent, so the sample proves the class). Restore
    // must throw -- never return damaged weights.
    sim::Cluster cluster(fuzzFleetConfig());
    BlobFixture fx;
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore probe(cluster, sc);
    ASSERT_TRUE(probe.write(1, fx.blob).acked);
    const std::size_t envLen = probe.replicaData(0).size();

    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < 16 && i < envLen; ++i)
        positions.push_back(i); // magic + length header
    for (std::size_t i = envLen >= 8 ? envLen - 8 : 0; i < envLen; ++i)
        positions.push_back(i); // trailing checksum
    const std::size_t stride =
        std::max<std::size_t>(1, envLen / 256);
    for (std::size_t i = 16; i + 8 < envLen; i += stride)
        positions.push_back(i); // payload sample

    for (const std::size_t i : positions) {
        ckpt::ReplicatedCkptStore store(cluster, sc);
        ASSERT_TRUE(store.write(1, fx.blob).acked);
        store.replicaData(0)[i] ^= 0xff;
        store.replicaData(1)[i] ^= 0xff;
        EXPECT_THROW(store.restore(0), CheckpointError)
            << "data envelope byte " << i
            << " corrupted in every copy yet restore succeeded";
    }
}

TEST(CheckpointFile, TrainerResumesAcrossFile)
{
    const std::string path = tempPath("resume.ckpt");
    data::DataBundle bundle = tinyBundle();

    double accBefore = 0.0;
    std::size_t epochsBefore = 0;
    {
        SoCFlowTrainer first(tinyConfig(), bundle);
        first.runEpoch();
        first.runEpoch();
        first.runEpoch();
        accBefore = first.testAccuracy();
        epochsBefore = first.epochsDone();
        writeCheckpointFile(path, first.saveCheckpoint());
    }  // "process" exits

    SoCFlowTrainer resumed(tinyConfig(), bundle);
    resumed.loadCheckpoint(readCheckpointFile(path));
    EXPECT_EQ(resumed.epochsDone(), epochsBefore);
    EXPECT_NEAR(resumed.testAccuracy(), accBefore, 1e-9);

    // Training continues productively after resume.
    resumed.runEpoch();
    resumed.runEpoch();
    EXPECT_GE(resumed.testAccuracy(), accBefore - 0.05);
    std::remove(path.c_str());
}
