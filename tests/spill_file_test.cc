// Batched spill file: the cold tier's on-disk format must survive what
// disks actually do — torn tails from a crash mid-append, rotted bytes,
// hostile length prefixes — and its last-write-wins index, compaction and
// cross-run re-interning must round-trip sessions byte-for-byte. The
// concurrency smokes (appends + reads + erases racing a compaction, on a
// single file and across a SpillFileSet fan) run under the TSAN CI job.
//
// SpillFileSet: routing by user id across members, the cross-member probe
// after a member-count change, and crash cuts staying contained to the one
// member whose tail was torn.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "store/spill_file.h"
#include "store/spill_file_set.h"

namespace rcloak::store {
namespace {

using util::StringInterner;
using util::UserId;

constexpr std::uint64_t kFingerprint = 0x1122334455667788ull;
constexpr std::size_t kFileHeader = 13;   // "RCSF" + version + fingerprint
constexpr std::size_t kRecordHeader = 12;  // u32 len + u64 checksum

std::string TempPath(const std::string& name) {
  const std::string path = "spill_test_" + name + ".rcsf";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

Bytes ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(is)),
               std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const Bytes& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(data.size()));
}

Bytes State(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

TEST(SpillFileTest, RoundTripAndLastWriteWins) {
  const std::string path = TempPath("roundtrip");
  StringInterner interner;
  const UserId alice = interner.Intern("alice");
  const UserId bob = interner.Intern("bob");
  auto file = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  ASSERT_TRUE((*file)
                  ->AppendBatch({{alice, State({1, 2, 3})},
                                 {bob, State({9, 9})}})
                  .ok());
  EXPECT_TRUE((*file)->Contains(alice));
  EXPECT_TRUE((*file)->Contains(bob));
  EXPECT_FALSE((*file)->Contains(UserId{777}));

  // A later record for the same user supersedes; the old bytes go dead.
  ASSERT_TRUE((*file)->AppendBatch({{alice, State({4, 5, 6, 7})}}).ok());
  const auto read = (*file)->ReadRecord(alice);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({4, 5, 6, 7}));
  EXPECT_GT((*file)->stats().dead_bytes, 0u);
  EXPECT_EQ((*file)->stats().live_records, 2u);
  EXPECT_EQ((*file)->LiveUsers().size(), 2u);

  EXPECT_TRUE((*file)->Erase(bob));
  EXPECT_FALSE((*file)->Erase(bob));
  EXPECT_EQ((*file)->ReadRecord(bob).status().code(), ErrorCode::kNotFound);
  std::remove(path.c_str());
}

TEST(SpillFileTest, ReattachScansAndReinterns) {
  const std::string path = TempPath("reattach");
  {
    StringInterner interner;
    const UserId a = interner.Intern("carol");
    const UserId b = interner.Intern("dave");
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)
                    ->AppendBatch({{a, State({1})}, {b, State({2, 2})}})
                    .ok());
    ASSERT_TRUE((*file)->AppendBatch({{a, State({3, 3, 3})}}).ok());
  }
  // A fresh process: new interner, names come back from the scan.
  StringInterner interner;
  auto file = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const UserId carol = interner.Find("carol");
  const UserId dave = interner.Find("dave");
  ASSERT_TRUE(carol.valid());
  ASSERT_TRUE(dave.valid());
  EXPECT_EQ((*file)->stats().live_records, 2u);
  const auto read = (*file)->ReadRecord(carol);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({3, 3, 3}));  // last write won across the run
  const auto read_dave = (*file)->ReadRecord(dave);
  ASSERT_TRUE(read_dave.ok());
  EXPECT_EQ(*read_dave, State({2, 2}));
  std::remove(path.c_str());
}

TEST(SpillFileTest, FingerprintMismatchRejected) {
  const std::string path = TempPath("fingerprint");
  StringInterner interner;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId u = interner.Intern("eve");
    ASSERT_TRUE((*file)->AppendBatch({{u, State({1})}}).ok());
  }
  const auto mismatched = SpillFile::Attach(path, kFingerprint + 1, interner);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), ErrorCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SpillFileTest, TruncatedTailRecordIgnored) {
  const std::string path = TempPath("torntail");
  StringInterner interner;
  std::size_t first_end = 0;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId a = interner.Intern("alice");
    const UserId b = interner.Intern("bob");
    ASSERT_TRUE((*file)->AppendBatch({{a, State({1, 2, 3})}}).ok());
    first_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{b, State({4, 5, 6})}}).ok());
  }
  // Crash mid-append: the second record loses its last 2 bytes.
  Bytes raw = ReadAll(path);
  raw.resize(raw.size() - 2);
  WriteAll(path, raw);

  StringInterner fresh;
  auto file = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->stats().live_records, 1u);
  EXPECT_GT((*file)->stats().tail_truncated_bytes, 0u);
  // The file was truncated back to the last whole-record boundary.
  EXPECT_EQ((*file)->stats().file_bytes, first_end);
  EXPECT_TRUE(fresh.Find("alice").valid());
  EXPECT_FALSE(fresh.Find("bob").valid());
  std::remove(path.c_str());
}

TEST(SpillFileTest, CorruptedLengthPrefixStopsScan) {
  const std::string path = TempPath("badlength");
  StringInterner interner;
  std::size_t first_end = 0;
  std::size_t second_end = 0;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId a = interner.Intern("alice");
    const UserId b = interner.Intern("bob");
    const UserId c = interner.Intern("carol");
    ASSERT_TRUE((*file)->AppendBatch({{a, State({1})}}).ok());
    first_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{b, State({2})}}).ok());
    second_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{c, State({3})}}).ok());
  }
  // An implausible length prefix on record 2: nothing after that boundary
  // can be trusted — the scan must stop and truncate there, losing record
  // 3 as well.
  Bytes raw = ReadAll(path);
  raw[first_end] = 0xFF;
  raw[first_end + 1] = 0xFF;
  raw[first_end + 2] = 0xFF;
  raw[first_end + 3] = 0xFF;
  WriteAll(path, raw);
  (void)second_end;

  StringInterner fresh;
  auto file = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->stats().live_records, 1u);
  EXPECT_EQ((*file)->stats().file_bytes, first_end);
  EXPECT_TRUE(fresh.Find("alice").valid());
  EXPECT_FALSE(fresh.Find("bob").valid());
  EXPECT_FALSE(fresh.Find("carol").valid());
  // Appends continue from the trustworthy boundary.
  const UserId dave = fresh.Intern("dave");
  ASSERT_TRUE((*file)->AppendBatch({{dave, State({7, 7})}}).ok());
  const auto read = (*file)->ReadRecord(dave);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({7, 7}));
  std::remove(path.c_str());
}

TEST(SpillFileTest, CorruptedPayloadSkippedAndReadsReportDataLoss) {
  const std::string path = TempPath("rot");
  StringInterner interner;
  std::size_t first_end = 0;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId a = interner.Intern("alice");
    const UserId b = interner.Intern("bob");
    ASSERT_TRUE((*file)->AppendBatch({{a, State({1, 2, 3, 4})}}).ok());
    first_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{b, State({5, 6})}}).ok());
  }
  // Flip one payload byte of record 1 (the length prefix stays sane): the
  // scan must skip it as dead via the checksum and keep record 2.
  Bytes raw = ReadAll(path);
  raw[kFileHeader + kRecordHeader + 2] ^= 0x40;
  WriteAll(path, raw);

  StringInterner fresh;
  auto file = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->stats().live_records, 1u);
  EXPECT_EQ((*file)->stats().corrupt_records_skipped, 1u);
  EXPECT_FALSE(fresh.Find("alice").valid());
  const UserId bob = fresh.Find("bob");
  ASSERT_TRUE(bob.valid());
  const auto read = (*file)->ReadRecord(bob);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({5, 6}));

  // Rot AFTER attach: the indexed record's bytes change under the file —
  // the read must fail loudly, not hand back garbage state.
  Bytes again = ReadAll(path);
  again[first_end + kRecordHeader + 1] ^= 0x01;
  WriteAll(path, again);
  EXPECT_EQ((*file)->ReadRecord(bob).status().code(), ErrorCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SpillFileTest, CompactDropsDeadBytesAndSurvivesReattach) {
  const std::string path = TempPath("compact");
  StringInterner interner;
  auto file = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(file.ok());
  std::vector<UserId> users;
  for (int i = 0; i < 50; ++i) {
    users.push_back(interner.Intern("user" + std::to_string(i)));
  }
  for (int round = 0; round < 4; ++round) {
    std::vector<SpillFile::Record> batch;
    for (const UserId user : users) {
      batch.push_back({user, State({static_cast<std::uint8_t>(round)})});
    }
    ASSERT_TRUE((*file)->AppendBatch(batch).ok());
  }
  for (int i = 0; i < 10; ++i) EXPECT_TRUE((*file)->Erase(users[i]));
  const auto before = (*file)->stats();
  EXPECT_GT(before.dead_bytes, 0u);

  ASSERT_TRUE((*file)->Compact().ok());
  const auto after = (*file)->stats();
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_EQ(after.live_records, 40u);
  EXPECT_LT(after.file_bytes, before.file_bytes);
  EXPECT_EQ(after.compactions, 1u);
  for (int i = 10; i < 50; ++i) {
    const auto read = (*file)->ReadRecord(users[i]);
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_EQ(*read, State({3}));
  }
  file->reset();  // close before reattach

  StringInterner fresh;
  auto reopened = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().live_records, 40u);
  EXPECT_FALSE(fresh.Find("user3").valid());
  EXPECT_TRUE(fresh.Find("user37").valid());
  std::remove(path.c_str());
}

// Compaction reads the old file front to back in bounded chunks and copies
// each verified record verbatim. A live record that rotted mid-file is
// skipped and counted; every other record — across chunk refills, dead
// gaps and one record larger than a chunk — reads back byte-identical,
// before and after reattach.
TEST(SpillFileTest, CompactionSkipsRottedLiveRecordAndKeepsTheRest) {
  const std::string path = TempPath("compact_rot");
  StringInterner interner;
  auto file = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(file.ok());
  constexpr int kUsers = 40;
  constexpr int kRotten = 17;
  std::vector<UserId> users;
  std::vector<Bytes> states(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    users.push_back(interner.Intern("user" + std::to_string(i)));
  }
  auto state_of = [](int user, int round) {
    // ~100 KB states (one of them 1.5 MB) spread the live set over many
    // 1 MiB compaction chunks.
    const std::size_t size = user == 30 ? (3u << 19) : 100000u + user;
    Bytes state(size);
    for (std::size_t b = 0; b < size; ++b) {
      state[b] = static_cast<std::uint8_t>(b * 31 + user * 7 + round);
    }
    return state;
  };
  std::uint64_t rotten_offset = 0;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kUsers; ++i) {
      // Round 1 rewrites every third user: dead gaps between live records.
      if (round == 1 && i % 3 != 0) continue;
      if (i == kRotten && round == 0) {
        rotten_offset = (*file)->stats().file_bytes;
      }
      states[i] = state_of(i, round);
      ASSERT_TRUE((*file)->AppendBatch({{users[i], states[i]}}).ok());
    }
  }
  // kRotten (not a multiple of 3) is live from round 0, mid-file.
  ASSERT_NE(kRotten % 3, 0);
  Bytes raw = ReadAll(path);
  raw[rotten_offset + kRecordHeader + 500] ^= 0x5A;
  WriteAll(path, raw);

  ASSERT_TRUE((*file)->Compact().ok());
  const auto after = (*file)->stats();
  EXPECT_EQ(after.corrupt_records_skipped, 1u);
  EXPECT_EQ(after.live_records, static_cast<std::size_t>(kUsers - 1));
  EXPECT_EQ(after.dead_bytes, 0u);
  auto check_all = [&](SpillFile& spill, const StringInterner& names) {
    for (int i = 0; i < kUsers; ++i) {
      const UserId id = names.Find("user" + std::to_string(i));
      if (i == kRotten) {
        EXPECT_FALSE(id.valid() && spill.Contains(id));
        continue;
      }
      ASSERT_TRUE(id.valid()) << i;
      const auto read = spill.ReadRecord(id);
      ASSERT_TRUE(read.ok()) << i << ": " << read.status().ToString();
      EXPECT_EQ(*read, states[i]) << i;
    }
  };
  check_all(**file, interner);
  file->reset();

  StringInterner fresh;
  auto reopened = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().live_records,
            static_cast<std::size_t>(kUsers - 1));
  EXPECT_EQ((*reopened)->stats().corrupt_records_skipped, 0u);
  check_all(**reopened, fresh);
  std::remove(path.c_str());
}

// TSAN smoke: appends, reads, erases and stats racing periodic
// compactions through the file's internal mutex.
TEST(SpillFileTest, CompactionUnderConcurrentUpdates) {
  const std::string path = TempPath("concurrent");
  StringInterner interner;
  auto attached = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(attached.ok());
  SpillFile* file = attached->get();
  constexpr int kWriters = 3;
  constexpr int kUsersPerWriter = 40;
  constexpr int kRounds = 25;
  std::vector<std::vector<UserId>> users(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kUsersPerWriter; ++i) {
      users[w].push_back(
          interner.Intern("w" + std::to_string(w) + "u" + std::to_string(i)));
    }
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([file, &users, w] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<SpillFile::Record> batch;
        for (const UserId user : users[w]) {
          batch.push_back(
              {user, State({static_cast<std::uint8_t>(round),
                            static_cast<std::uint8_t>(w)})});
        }
        ASSERT_TRUE(file->AppendBatch(batch).ok());
        for (const UserId user : users[w]) {
          const auto read = file->ReadRecord(user);
          ASSERT_TRUE(read.ok());
        }
        if (round % 7 == 3) file->Erase(users[w][round % kUsersPerWriter]);
        (void)file->stats();
      }
    });
  }
  threads.emplace_back([file] {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(file->Compact().ok());
      (void)file->LiveUsers();
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_GE(file->stats().compactions, 8u);
  // Every non-erased user still resolves to its last write.
  for (int w = 0; w < kWriters; ++w) {
    for (const UserId user : users[w]) {
      if (!file->Contains(user)) continue;
      const auto read = file->ReadRecord(user);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ((*read)[1], static_cast<std::uint8_t>(w));
    }
  }
  std::remove(path.c_str());
}

// ---- SpillFileSet ----------------------------------------------------------

// Removes every member file of a set path (and compaction temps) so each
// test attaches fresh; also used as end-of-test cleanup.
std::string SetPath(const std::string& name, std::size_t members) {
  const std::string path = "spill_test_" + name + ".rcsf";
  for (std::size_t i = 0; i < members; ++i) {
    const std::string member = SpillFileSet::MemberPath(path, i);
    std::remove(member.c_str());
    std::remove((member + ".tmp").c_str());
  }
  return path;
}

TEST(SpillFileSetTest, FanRoundTripAcrossMembers) {
  const std::string path = SetPath("fan", 4);
  StringInterner interner;
  auto set = SpillFileSet::Attach(path, 4, kFingerprint, interner);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ((*set)->num_members(), 4u);
  std::vector<SpillFileSet::Record> batch;
  std::vector<UserId> users;
  for (int i = 0; i < 64; ++i) {
    const UserId user = interner.Intern("fan" + std::to_string(i));
    users.push_back(user);
    batch.push_back({user, State({static_cast<std::uint8_t>(i)})});
  }
  ASSERT_TRUE((*set)->AppendBatch(batch).ok());
  // The fan actually fans: 64 users over 4 members leaves none empty.
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_GT((*set)->member(m).stats().live_records, 0u) << m;
  }
  EXPECT_EQ((*set)->stats().live_records, 64u);
  EXPECT_EQ((*set)->LiveUsers().size(), 64u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*set)->Contains(users[static_cast<std::size_t>(i)]));
    const auto read = (*set)->ReadRecord(users[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, State({static_cast<std::uint8_t>(i)}));
  }
  EXPECT_TRUE((*set)->Erase(users[0]));
  EXPECT_FALSE((*set)->Erase(users[0]));
  // Erase only drops the index entry; compaction persists the drop (the
  // attach scan is last-write-wins and would resurrect the bytes).
  ASSERT_TRUE((*set)->Compact().ok());
  set->reset();  // close all members before reattach

  // A fresh process: the whole set re-attaches and re-interns.
  StringInterner fresh;
  auto reopened = SpillFileSet::Attach(path, 4, kFingerprint, fresh);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().live_records, 63u);
  const UserId fan7 = fresh.Find("fan7");
  ASSERT_TRUE(fan7.valid());
  const auto read = (*reopened)->ReadRecord(fan7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({7}));
  SetPath("fan", 4);
}

TEST(SpillFileSetTest, CrashCutTailTruncatesOnlyThatMember) {
  const std::string path = SetPath("crashcut", 3);
  {
    StringInterner interner;
    auto set = SpillFileSet::Attach(path, 3, kFingerprint, interner);
    ASSERT_TRUE(set.ok());
    std::vector<SpillFileSet::Record> batch;
    for (int i = 0; i < 30; ++i) {
      batch.push_back({interner.Intern("cc" + std::to_string(i)),
                       State({1, 2, 3, 4})});
    }
    ASSERT_TRUE((*set)->AppendBatch(batch).ok());
  }
  std::size_t live_before = 0;
  std::size_t member1_live = 0;
  {
    StringInterner probe;
    auto set = SpillFileSet::Attach(path, 3, kFingerprint, probe);
    ASSERT_TRUE(set.ok());
    live_before = (*set)->stats().live_records;
    member1_live = (*set)->member(1).stats().live_records;
    ASSERT_GE(member1_live, 1u);
  }
  // Crash mid group append on member 1: its last record loses 2 bytes.
  // The cut must stay contained — member 1 drops exactly its torn record,
  // the other members attach untouched.
  const std::string member1 = SpillFileSet::MemberPath(path, 1);
  Bytes raw = ReadAll(member1);
  raw.resize(raw.size() - 2);
  WriteAll(member1, raw);

  StringInterner fresh;
  auto set = SpillFileSet::Attach(path, 3, kFingerprint, fresh);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ((*set)->stats().live_records, live_before - 1);
  EXPECT_EQ((*set)->member(1).stats().live_records, member1_live - 1);
  EXPECT_GT((*set)->member(1).stats().tail_truncated_bytes, 0u);
  EXPECT_EQ((*set)->member(0).stats().tail_truncated_bytes, 0u);
  EXPECT_EQ((*set)->member(2).stats().tail_truncated_bytes, 0u);
  SetPath("crashcut", 3);
}

TEST(SpillFileSetTest, RecordsWrittenUnderDifferentMemberCountStillFound) {
  const std::string path = SetPath("refan", 3);
  {
    StringInterner interner;
    auto single = SpillFileSet::Attach(path, 1, kFingerprint, interner);
    ASSERT_TRUE(single.ok());
    std::vector<SpillFileSet::Record> batch;
    for (int i = 0; i < 12; ++i) {
      batch.push_back({interner.Intern("mv" + std::to_string(i)),
                       State({static_cast<std::uint8_t>(i)})});
    }
    ASSERT_TRUE((*single)->AppendBatch(batch).ok());
  }
  // The same data re-attached as a 3-member set: every record still lives
  // in member 0, but most users now home elsewhere — the cross-member
  // probe must find (and erase) them anyway.
  StringInterner interner;
  auto set = SpillFileSet::Attach(path, 3, kFingerprint, interner);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ((*set)->stats().live_records, 12u);
  for (int i = 0; i < 12; ++i) {
    const UserId user = interner.Find("mv" + std::to_string(i));
    ASSERT_TRUE(user.valid()) << i;
    EXPECT_TRUE((*set)->Contains(user));
    const auto read = (*set)->ReadRecord(user);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, State({static_cast<std::uint8_t>(i)}));
    EXPECT_TRUE((*set)->Erase(user));
    EXPECT_FALSE((*set)->Contains(user));
  }
  EXPECT_TRUE((*set)->LiveUsers().empty());
  SetPath("refan", 3);
}

// TSAN smoke: concurrent appends/reads racing the set-level Compact. The
// set has no lock of its own — every member synchronizes itself — so this
// pins the claim that the fan introduces no unsynchronized state.
TEST(SpillFileSetTest, ConcurrentFanUnderCompaction) {
  const std::string path = SetPath("fanrace", 4);
  StringInterner interner;
  auto attached = SpillFileSet::Attach(path, 4, kFingerprint, interner);
  ASSERT_TRUE(attached.ok());
  SpillFileSet* set = attached->get();
  constexpr int kWriters = 3;
  constexpr int kUsersPerWriter = 32;
  constexpr int kRounds = 20;
  std::vector<std::vector<UserId>> users(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kUsersPerWriter; ++i) {
      users[w].push_back(interner.Intern("f" + std::to_string(w) + "x" +
                                         std::to_string(i)));
    }
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([set, &users, w] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<SpillFileSet::Record> batch;
        for (const UserId user : users[w]) {
          batch.push_back({user, State({static_cast<std::uint8_t>(round),
                                        static_cast<std::uint8_t>(w)})});
        }
        ASSERT_TRUE(set->AppendBatch(batch).ok());
        for (const UserId user : users[w]) {
          ASSERT_TRUE(set->ReadRecord(user).ok());
        }
        if (round % 7 == 3) set->Erase(users[w][round % kUsersPerWriter]);
        (void)set->stats();
      }
    });
  }
  threads.emplace_back([set] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(set->Compact().ok());
      (void)set->LiveUsers();
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  for (int w = 0; w < kWriters; ++w) {
    for (const UserId user : users[w]) {
      if (!set->Contains(user)) continue;
      const auto read = set->ReadRecord(user);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ((*read)[1], static_cast<std::uint8_t>(w));
    }
  }
  SetPath("fanrace", 4);
}

}  // namespace
}  // namespace rcloak::store
