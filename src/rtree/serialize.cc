#include "rtree/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "rtree/validate.h"

namespace nwc {

namespace {

constexpr uint64_t kMagic = 0x4E57435452454531ULL;  // "NWCTREE1"
// The header's split-algorithm byte: 0 is the R* split, the only one.
constexpr uint8_t kSplitByte = 0;

class FileWriter {
 public:
  explicit FileWriter(const std::string& path) : file_(std::fopen(path.c_str(), "wb")) {}
  ~FileWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  bool ok() const { return file_ != nullptr && !failed_; }

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok()) return;
    if (std::fwrite(&value, sizeof(T), 1, file_) != 1) failed_ = true;
  }

 private:
  std::FILE* file_;
  bool failed_ = false;
};

class FileReader {
 public:
  explicit FileReader(const std::string& path) : file_(std::fopen(path.c_str(), "rb")) {
    if (file_ != nullptr && std::fseek(file_, 0, SEEK_END) == 0) {
      remaining_ = static_cast<uint64_t>(std::max(std::ftell(file_), 0L));
      std::rewind(file_);
    }
  }
  ~FileReader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  bool ok() const { return file_ != nullptr && !failed_; }

  /// True when the unread bytes can hold `count` items of `bytes_each`
  /// bytes: a count read from the file sizes no allocation before this.
  bool CanHold(uint64_t count, uint64_t bytes_each) const {
    return count <= remaining_ / bytes_each;
  }

  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    if (!ok()) return value;
    if (std::fread(&value, sizeof(T), 1, file_) != 1) failed_ = true;
    remaining_ -= std::min<uint64_t>(remaining_, sizeof(T));
    return value;
  }

 private:
  std::FILE* file_;
  bool failed_ = false;
  uint64_t remaining_ = 0;
};

// Smallest encodings of a node slot and of each entry kind (see SaveTree).
constexpr uint64_t kSlotBytes = sizeof(uint8_t);
constexpr uint64_t kObjectBytes = sizeof(ObjectId) + 2 * sizeof(double);
constexpr uint64_t kChildBytes = 4 * sizeof(double) + sizeof(NodeId);

}  // namespace

Status SaveTree(const RStarTree& tree, const std::string& path) {
  FileWriter out(path);
  if (!out.ok()) return Status::IoError(StrFormat("cannot open %s for writing", path.c_str()));

  out.Write(kMagic);
  out.Write(static_cast<int32_t>(tree.options().max_entries));
  out.Write(static_cast<int32_t>(tree.options().min_entries));
  out.Write(tree.options().reinsert_fraction);
  out.Write(static_cast<uint8_t>(tree.options().forced_reinsert ? 1 : 0));
  out.Write(kSplitByte);
  out.Write(static_cast<uint64_t>(tree.size()));
  out.Write(static_cast<uint64_t>(tree.node_slot_count()));
  out.Write(tree.root());

  for (NodeId id = 0; id < tree.node_slot_count(); ++id) {
    const uint8_t live = tree.IsLive(id) ? 1 : 0;
    out.Write(live);
    if (live == 0) continue;
    const RTreeNode& n = tree.node(id);
    out.Write(static_cast<int32_t>(n.level));
    out.Write(n.parent);
    if (n.is_leaf()) {
      out.Write(static_cast<uint32_t>(n.objects.size()));
      for (const DataObject& obj : n.objects) {
        out.Write(obj.id);
        out.Write(obj.pos.x);
        out.Write(obj.pos.y);
      }
    } else {
      out.Write(static_cast<uint32_t>(n.children.size()));
      for (const ChildEntry& entry : n.children) {
        out.Write(entry.mbr.min_x);
        out.Write(entry.mbr.min_y);
        out.Write(entry.mbr.max_x);
        out.Write(entry.mbr.max_y);
        out.Write(entry.child);
      }
    }
  }
  if (!out.ok()) return Status::IoError(StrFormat("short write to %s", path.c_str()));
  return Status::Ok();
}

Result<RStarTree> LoadTree(const std::string& path) {
  FileReader in(path);
  if (!in.ok()) return Status::IoError(StrFormat("cannot open %s for reading", path.c_str()));

  if (in.Read<uint64_t>() != kMagic) {
    return Status::IoError(StrFormat("%s is not an nwc tree file", path.c_str()));
  }
  RTreeOptions options;
  options.max_entries = in.Read<int32_t>();
  options.min_entries = in.Read<int32_t>();
  options.reinsert_fraction = in.Read<double>();
  options.forced_reinsert = in.Read<uint8_t>() != 0;
  if (in.Read<uint8_t>() != kSplitByte) {
    return Status::IoError(StrFormat("%s has an unknown split algorithm", path.c_str()));
  }
  const Status options_ok = options.Validate();
  if (!options_ok.ok()) return options_ok;

  const uint64_t size = in.Read<uint64_t>();
  const uint64_t slot_count = in.Read<uint64_t>();
  const NodeId root = in.Read<NodeId>();
  if (!in.CanHold(slot_count, kSlotBytes)) {
    return Status::IoError(StrFormat("tree file %s claims %llu node slots", path.c_str(),
                                     static_cast<unsigned long long>(slot_count)));
  }

  std::vector<std::unique_ptr<RTreeNode>> nodes(slot_count);
  for (NodeId id = 0; id < slot_count; ++id) {
    const uint8_t live = in.Read<uint8_t>();
    if (!in.ok()) return Status::IoError(StrFormat("truncated tree file %s", path.c_str()));
    if (live == 0) continue;
    auto n = std::make_unique<RTreeNode>();
    n->id = id;
    n->level = in.Read<int32_t>();
    n->parent = in.Read<NodeId>();
    const uint32_t count = in.Read<uint32_t>();
    if (count > static_cast<uint32_t>(options.max_entries) ||
        !in.CanHold(count, n->level == 0 ? kObjectBytes : kChildBytes)) {
      return Status::IoError(
          StrFormat("tree file %s has a node of %u entries", path.c_str(), count));
    }
    if (n->level == 0) {
      n->objects.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        DataObject obj;
        obj.id = in.Read<ObjectId>();
        obj.pos.x = in.Read<double>();
        obj.pos.y = in.Read<double>();
        n->objects.push_back(obj);
      }
    } else {
      n->children.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        ChildEntry entry;
        entry.mbr.min_x = in.Read<double>();
        entry.mbr.min_y = in.Read<double>();
        entry.mbr.max_x = in.Read<double>();
        entry.mbr.max_y = in.Read<double>();
        entry.child = in.Read<NodeId>();
        n->children.push_back(entry);
      }
    }
    nodes[id] = std::move(n);
  }
  if (!in.ok()) return Status::IoError(StrFormat("truncated tree file %s", path.c_str()));
  if (root >= slot_count || nodes[root] == nullptr) {
    return Status::IoError(StrFormat("tree file %s has an invalid root", path.c_str()));
  }

  RStarTree tree = RStarTree::FromParts(options, std::move(nodes), root, size);
  const Status valid = ValidateTree(tree);
  if (!valid.ok()) return valid;
  return tree;
}

}  // namespace nwc
