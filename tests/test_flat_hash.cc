/**
 * @file
 * Unit tests for the open-addressing flat hash containers backing the
 * analyzer hot paths: growth, insert/find semantics, the hashed entry
 * points, move-only values, and collision stress with degenerate key
 * patterns under every hash policy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_hash.hh"

namespace mica::util
{
namespace
{

TEST(FlatHashMapTest, EmptyMapFindsNothing)
{
    FlatHashMap<uint64_t, uint64_t> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_FALSE(m.contains(42));
}

TEST(FlatHashMapTest, InsertFindRoundTrip)
{
    FlatHashMap<uint64_t, uint64_t> m;
    auto [v, inserted] = m.tryEmplace(7, 70);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 70u);
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70u);
    EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatHashMapTest, TryEmplaceDoesNotOverwrite)
{
    FlatHashMap<uint64_t, uint64_t> m;
    m.tryEmplace(7, 70);
    auto [v, inserted] = m.tryEmplace(7, 99);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*v, 70u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMapTest, BracketValueInitializesMissingEntries)
{
    FlatHashMap<uint64_t, int8_t> m;
    EXPECT_EQ(m[123], 0);
    m[123] = 4;
    EXPECT_EQ(m[123], 4);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMapTest, ZeroKeyIsAnOrdinaryKey)
{
    // Zero is a natural key (address 0, the first dense id); it must
    // behave like any other key, not mark an empty slot.
    FlatHashMap<uint64_t, uint64_t> m;
    EXPECT_EQ(m.find(0), nullptr);
    m[0] = 17;
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 17u);
}

TEST(FlatHashMapTest, GrowthPreservesAllEntries)
{
    FlatHashMap<uint64_t, uint64_t> m;
    constexpr uint64_t kN = 20000;
    for (uint64_t i = 0; i < kN; ++i)
        m[i * 31 + 1] = i;
    EXPECT_EQ(m.size(), kN);
    for (uint64_t i = 0; i < kN; ++i) {
        ASSERT_NE(m.find(i * 31 + 1), nullptr) << i;
        EXPECT_EQ(*m.find(i * 31 + 1), i);
    }
    EXPECT_EQ(m.find(2), nullptr);
}

TEST(FlatHashMapTest, MatchesUnorderedMapUnderRandomOps)
{
    FlatHashMap<uint64_t, uint64_t> m;
    std::unordered_map<uint64_t, uint64_t> ref;
    uint64_t state = 0x1234'5678'9abc'def0ull;
    for (int i = 0; i < 50000; ++i) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        const uint64_t key = state % 4096;   // force collisions/hits
        const uint64_t val = state >> 32;
        m.tryEmplace(key, val);
        ref.try_emplace(key, val);
    }
    EXPECT_EQ(m.size(), ref.size());
    for (const auto &[k, v] : ref) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), v);
    }
}

/** Degenerate key families that punish weak table hashing. */
std::vector<std::vector<uint64_t>>
degenerateKeySets()
{
    std::vector<std::vector<uint64_t>> sets;
    std::vector<uint64_t> pages;        // multiples of a power of two
    std::vector<uint64_t> highBits;     // differ only in high bits
    std::vector<uint64_t> lowClustered; // tiny dense range
    for (uint64_t i = 0; i < 3000; ++i) {
        pages.push_back(i * 4096);
        highBits.push_back(i << 40);
        lowClustered.push_back(i);
    }
    sets.push_back(std::move(pages));
    sets.push_back(std::move(highBits));
    sets.push_back(std::move(lowClustered));
    return sets;
}

template <typename Map>
void
collisionStress(const std::vector<uint64_t> &keys)
{
    Map m;
    for (size_t i = 0; i < keys.size(); ++i)
        m[keys[i]] = i;
    ASSERT_EQ(m.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(m.find(keys[i]), nullptr);
        EXPECT_EQ(*m.find(keys[i]), i);
    }
}

TEST(FlatHashMapTest, CollisionStressDegenerateKeysMixHash)
{
    for (const auto &keys : degenerateKeySets())
        collisionStress<FlatHashMap<uint64_t, uint64_t, MixHash>>(keys);
}

TEST(FlatHashMapTest, CollisionStressDegenerateKeysMulHash)
{
    for (const auto &keys : degenerateKeySets())
        collisionStress<FlatHashMap<uint64_t, uint64_t, MulHash>>(keys);
}

TEST(FlatHashMapTest, MoveOnlyValuesSurviveGrowth)
{
    FlatHashMap<uint64_t, std::unique_ptr<uint64_t>> m;
    for (uint64_t i = 0; i < 500; ++i)
        m.tryEmplace(i, std::make_unique<uint64_t>(i * 3));
    EXPECT_EQ(m.size(), 500u);
    for (uint64_t i = 0; i < 500; ++i) {
        ASSERT_NE(m.find(i), nullptr);
        ASSERT_NE(*m.find(i), nullptr);
        EXPECT_EQ(**m.find(i), i * 3);
    }
    // operator[] default-constructs a null pointer.
    EXPECT_EQ(m[777], nullptr);
}

TEST(FlatHashMapTest, ReserveAvoidsRehashAndKeepsSemantics)
{
    FlatHashMap<uint64_t, uint64_t> m;
    m.reserve(1000);
    const size_t cap = m.capacity();
    EXPECT_GE(cap, 1000u);
    for (uint64_t i = 0; i < 1000; ++i)
        m[i] = i;
    EXPECT_EQ(m.capacity(), cap);    // no growth needed
    EXPECT_EQ(m.size(), 1000u);
}

TEST(FlatHashMapTest, ClearEmptiesTheMap)
{
    FlatHashMap<uint64_t, uint64_t> m;
    for (uint64_t i = 0; i < 100; ++i)
        m[i] = i;
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(5), nullptr);
    m[5] = 50;    // usable after clear
    EXPECT_EQ(*m.find(5), 50u);
}

TEST(FlatHashSetTest, InsertReportsNewness)
{
    FlatHashSet<uint64_t> s;
    EXPECT_TRUE(s.insert(9));
    EXPECT_FALSE(s.insert(9));
    EXPECT_TRUE(s.insert(10));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.contains(9));
    EXPECT_TRUE(s.contains(10));
    EXPECT_FALSE(s.contains(11));
}

TEST(FlatHashSetTest, MatchesUnorderedSetUnderStress)
{
    FlatHashSet<uint64_t, MulHash> s;
    std::unordered_set<uint64_t> ref;
    uint64_t state = 99;
    for (int i = 0; i < 60000; ++i) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        const uint64_t key = (state * 0x2545f4914f6cdd1dull) % 8192;
        EXPECT_EQ(s.insert(key), ref.insert(key).second);
    }
    EXPECT_EQ(s.size(), ref.size());
    for (uint64_t k : ref)
        EXPECT_TRUE(s.contains(k));
}

TEST(FlatHashSetTest, GrowthKeepsDegenerateKeys)
{
    FlatHashSet<uint64_t> s;
    for (uint64_t i = 0; i < 4000; ++i)
        s.insert(i << 12);    // page-aligned addresses
    EXPECT_EQ(s.size(), 4000u);
    for (uint64_t i = 0; i < 4000; ++i)
        EXPECT_TRUE(s.contains(i << 12));
    EXPECT_FALSE(s.contains(1));
}

TEST(FlatHashSetTest, ClearEmptiesTheSet)
{
    FlatHashSet<uint64_t> s;
    s.insert(1);
    s.insert(2);
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    EXPECT_FALSE(s.contains(1));
    EXPECT_TRUE(s.insert(1));
}

} // namespace
} // namespace mica::util
