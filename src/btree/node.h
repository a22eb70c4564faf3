// Typed views over B-tree node payloads. The clustered index stores
// fixed-size entries sorted by key:
//
//   leaf entry     : [u64 key][value_size bytes payload]
//   internal entry : [u64 key][u32 child]   (low-fence convention: the key is
//                    the smallest key reachable through the child; lookups
//                    follow the last entry whose key is <= the search key,
//                    falling back to entry 0)
//
// With the paper's geometry (8 KB pages, 26-byte values) a leaf holds 229
// rows and an internal node ~680 children, matching the paper's ~0.2 % index
// to data ratio (§5.2).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>

#include "common/coding.h"
#include "common/types.h"
#include "storage/page.h"

namespace deutero {

/// View over a leaf node's payload. Not owning; cheap to construct.
class LeafNodeView {
 public:
  LeafNodeView(PageView page, uint32_t value_size)
      : page_(page), value_size_(value_size) {}

  static uint32_t Capacity(uint32_t page_size, uint32_t value_size) {
    return (page_size - kPageHeaderSize) / (8 + value_size);
  }

  uint32_t capacity() const {
    return Capacity(page_.page_size(), value_size_);
  }
  uint16_t count() const { return page_.num_slots(); }
  bool full() const { return count() >= capacity(); }

  Key KeyAt(uint32_t i) const {
    return DecodeFixed64(reinterpret_cast<const char*>(EntryPtr(i)));
  }
  const uint8_t* ValueAt(uint32_t i) const { return EntryPtr(i) + 8; }
  uint8_t* MutableValueAt(uint32_t i) { return EntryPtr(i) + 8; }
  uint32_t value_size() const { return value_size_; }

  /// First index with KeyAt(index) >= key; count() if none.
  uint32_t LowerBound(Key key) const {
    uint32_t lo = 0, hi = count();
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (KeyAt(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Index of `key`, or count() if absent.
  uint32_t Find(Key key) const {
    const uint32_t i = LowerBound(key);
    return (i < count() && KeyAt(i) == key) ? i : count();
  }

  /// Insert (key, value) at sorted position `i`, shifting the tail.
  void InsertAt(uint32_t i, Key key, const uint8_t* value) {
    assert(!full() && i <= count());
    const uint32_t esz = EntrySize();
    uint8_t* base = page_.payload();
    std::memmove(base + (i + 1) * esz, base + i * esz,
                 (count() - i) * static_cast<size_t>(esz));
    EncodeFixed64(reinterpret_cast<char*>(base + i * esz), key);
    std::memcpy(base + i * esz + 8, value, value_size_);
    page_.set_num_slots(count() + 1);
  }

  void SetValueAt(uint32_t i, const uint8_t* value) {
    assert(i < count());
    std::memcpy(MutableValueAt(i), value, value_size_);
  }

  /// Remove the entry at `i`, shifting the tail down (delete / insert
  /// undo). A leaf left under the merge threshold is coalesced into a
  /// sibling by the leaf-merge SMO (BTree::MaybeMergeLeaf).
  void RemoveAt(uint32_t i) {
    assert(i < count());
    const uint32_t esz = EntrySize();
    uint8_t* base = page_.payload();
    std::memmove(base + i * esz, base + (i + 1) * esz,
                 (count() - i - 1) * static_cast<size_t>(esz));
    page_.set_num_slots(count() - 1);
  }

  /// Append every entry of `src` after this node's entries, emptying `src`
  /// — the data movement of a leaf merge. `src` must hold strictly greater
  /// keys (it is the right-hand node of the pair).
  void AppendFrom(LeafNodeView* src) {
    const uint32_t n = src->count();
    assert(count() + n <= capacity());
    assert(n == 0 || count() == 0 || src->KeyAt(0) > KeyAt(count() - 1));
    const uint32_t esz = EntrySize();
    std::memcpy(page_.payload() + count() * static_cast<size_t>(esz),
                src->page_.payload(), n * static_cast<size_t>(esz));
    page_.set_num_slots(static_cast<uint16_t>(count() + n));
    src->page_.set_num_slots(0);
  }

  /// Move entries [from, count) into `dst` (must be empty), truncating this
  /// node — the right half of a split.
  void SpillUpperHalfInto(LeafNodeView* dst, uint32_t from) {
    assert(dst->count() == 0 && from <= count());
    const uint32_t esz = EntrySize();
    const uint32_t n = count() - from;
    std::memcpy(dst->page_.payload(), page_.payload() + from * esz,
                n * static_cast<size_t>(esz));
    dst->page_.set_num_slots(static_cast<uint16_t>(n));
    page_.set_num_slots(static_cast<uint16_t>(from));
  }

 private:
  uint32_t EntrySize() const { return 8 + value_size_; }
  const uint8_t* EntryPtr(uint32_t i) const {
    return page_.payload() + static_cast<size_t>(i) * EntrySize();
  }
  uint8_t* EntryPtr(uint32_t i) {
    return page_.payload() + static_cast<size_t>(i) * EntrySize();
  }

  PageView page_;
  uint32_t value_size_;
};

/// View over an internal node's payload.
class InternalNodeView {
 public:
  explicit InternalNodeView(PageView page) : page_(page) {}

  static constexpr uint32_t kEntrySize = 12;

  static uint32_t Capacity(uint32_t page_size) {
    return (page_size - kPageHeaderSize) / kEntrySize;
  }

  uint32_t capacity() const { return Capacity(page_.page_size()); }
  uint16_t count() const { return page_.num_slots(); }
  bool full() const { return count() >= capacity(); }

  Key KeyAt(uint32_t i) const {
    return DecodeFixed64(reinterpret_cast<const char*>(EntryPtr(i)));
  }
  PageId ChildAt(uint32_t i) const {
    return DecodeFixed32(reinterpret_cast<const char*>(EntryPtr(i) + 8));
  }

  /// Index of the child to follow for `key`: the last entry whose key is
  /// <= key, clamped to 0.
  uint32_t FindChildIndex(Key key) const {
    assert(count() > 0);
    uint32_t lo = 0, hi = count();
    while (lo < hi) {  // first index with KeyAt > key
      const uint32_t mid = (lo + hi) / 2;
      if (KeyAt(mid) <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo == 0 ? 0 : lo - 1;
  }

  PageId FindChild(Key key) const { return ChildAt(FindChildIndex(key)); }

  void InsertAt(uint32_t i, Key key, PageId child) {
    assert(!full() && i <= count());
    uint8_t* base = page_.payload();
    std::memmove(base + (i + 1) * kEntrySize, base + i * kEntrySize,
                 (count() - i) * static_cast<size_t>(kEntrySize));
    EncodeFixed64(reinterpret_cast<char*>(base + i * kEntrySize), key);
    EncodeFixed32(reinterpret_cast<char*>(base + i * kEntrySize + 8), child);
    page_.set_num_slots(count() + 1);
  }

  void SetKeyAt(uint32_t i, Key key) {
    assert(i < count());
    EncodeFixed64(reinterpret_cast<char*>(EntryPtr(i)), key);
  }

  /// Remove the entry at `i`, shifting the tail down (a leaf merge unlinks
  /// the victim child from its parent).
  void RemoveAt(uint32_t i) {
    assert(i < count());
    uint8_t* base = page_.payload();
    std::memmove(base + i * kEntrySize, base + (i + 1) * kEntrySize,
                 (count() - i - 1) * static_cast<size_t>(kEntrySize));
    page_.set_num_slots(count() - 1);
  }

  void Append(Key key, PageId child) { InsertAt(count(), key, child); }

  void SpillUpperHalfInto(InternalNodeView* dst, uint32_t from) {
    assert(dst->count() == 0 && from <= count());
    const uint32_t n = count() - from;
    std::memcpy(dst->page_.payload(), page_.payload() + from * kEntrySize,
                n * static_cast<size_t>(kEntrySize));
    dst->page_.set_num_slots(static_cast<uint16_t>(n));
    page_.set_num_slots(static_cast<uint16_t>(from));
  }

 private:
  const uint8_t* EntryPtr(uint32_t i) const {
    return page_.payload() + static_cast<size_t>(i) * kEntrySize;
  }
  uint8_t* EntryPtr(uint32_t i) {
    return page_.payload() + static_cast<size_t>(i) * kEntrySize;
  }

  PageView page_;
};

}  // namespace deutero
