#include "persist/snapshot.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace janus {
namespace persist {
namespace {

Writer SamplePayload() {
  Writer w;
  WriteMeta({"janus", 7, 8, 9}, &w);
  for (uint64_t i = 0; i < 1000; ++i) w.U64(i * i);
  return w;
}

bool Exists(const std::string& path) {
  struct stat st{};
  return stat(path.c_str(), &st) == 0;
}

/// Writes, reads back and checks that no temp file is left behind.
void ExpectPublishesAndLoads(const std::string& path) {
  const Writer payload = SamplePayload();
  WriteSnapshotFile(path, payload);
  EXPECT_FALSE(Exists(path + ".tmp")) << path;
  const SnapshotFile file = ReadSnapshotFile(path);
  const std::vector<uint8_t> back(file.payload(),
                                  file.payload() + file.payload_size());
  EXPECT_EQ(back, payload.buffer()) << path;
  Reader r(file.payload(), file.payload_size());
  EXPECT_EQ(ReadMeta(&r).insert_offset, 7u) << path;
  std::remove(path.c_str());
}

TEST(SnapshotPublishTest, BareFileNameSyncsTheWorkingDirectory) {
  char old_cwd[4096];
  ASSERT_NE(getcwd(old_cwd, sizeof(old_cwd)), nullptr);
  ASSERT_EQ(chdir(::testing::TempDir().c_str()), 0);
  ExpectPublishesAndLoads("bare_name.snap");
  ASSERT_EQ(chdir(old_cwd), 0);
}

TEST(SnapshotPublishTest, NestedPathSyncsItsParentDirectory) {
  const std::string outer = ::testing::TempDir() + "/snapshot_publish_" +
                            std::to_string(getpid());
  const std::string inner = outer + "/nested";
  ASSERT_EQ(mkdir(outer.c_str(), 0755), 0);
  ASSERT_EQ(mkdir(inner.c_str(), 0755), 0);
  ExpectPublishesAndLoads(inner + "/state.snap");
  rmdir(inner.c_str());
  rmdir(outer.c_str());
}

TEST(SnapshotPublishTest, MissingDirectoryThrows) {
  const std::string path = ::testing::TempDir() + "/no_such_dir_" +
                           std::to_string(getpid()) + "/state.snap";
  EXPECT_THROW(WriteSnapshotFile(path, SamplePayload()), PersistError);
}

}  // namespace
}  // namespace persist
}  // namespace janus
