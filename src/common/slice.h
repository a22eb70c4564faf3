// Non-owning view over a byte range, in the LevelDB/RocksDB tradition.
// Used for record values moving across the TC/DC interface and for log
// record payloads. The caller guarantees the backing storage outlives the
// slice.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>

namespace deutero {

class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, size_t n) : data_(d), size_(n) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(std::strlen(s)) {}          // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t n) const { return data_[n]; }

  /// Drop the first n bytes. Caller guarantees n <= size().
  void RemovePrefix(size_t n) {
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }

  int Compare(const Slice& b) const {
    const size_t min_len = size_ < b.size_ ? size_ : b.size_;
    int r = std::memcmp(data_, b.data_, min_len);
    if (r == 0) {
      if (size_ < b.size_) r = -1;
      else if (size_ > b.size_) r = +1;
    }
    return r;
  }

  bool operator==(const Slice& b) const {
    return size_ == b.size_ && std::memcmp(data_, b.data_, size_) == 0;
  }
  bool operator!=(const Slice& b) const { return !(*this == b); }

 private:
  const char* data_;
  size_t size_;
};

}  // namespace deutero
