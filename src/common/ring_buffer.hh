/**
 * @file
 * Growable circular FIFO used for the simulators' packet and message
 * queues. std::deque allocates and frees a storage block every ~few
 * dozen push/pop pairs as the occupied window crosses block
 * boundaries, which keeps a nominally steady-state simulation loop on
 * the heap; a ring buffer reaches its high-water capacity once and
 * never allocates again.
 */

#ifndef HIRISE_COMMON_RING_BUFFER_HH
#define HIRISE_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace hirise {

template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;
    explicit RingBuffer(std::size_t initial_capacity)
    {
        reserve(initial_capacity);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    /** Grow storage to hold at least @p n elements (power of two). */
    void
    reserve(std::size_t n)
    {
        if (n <= buf_.size())
            return;
        std::size_t cap = buf_.empty() ? 8 : buf_.size();
        while (cap < n)
            cap *= 2;
        regrow(cap);
    }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            regrow(buf_.empty() ? 8 : buf_.size() * 2);
        buf_[(head_ + size_) & (buf_.size() - 1)] = v;
        ++size_;
    }

    T &
    front()
    {
        sim_assert(size_ > 0, "front() of empty ring");
        return buf_[head_];
    }
    const T &
    front() const
    {
        sim_assert(size_ > 0, "front() of empty ring");
        return buf_[head_];
    }

    void
    pop_front()
    {
        sim_assert(size_ > 0, "pop_front() of empty ring");
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    /** Element @p i positions behind the front (0 == front()). */
    const T &
    operator[](std::size_t i) const
    {
        sim_assert(i < size_, "ring index %zu out of range", i);
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    void
    regrow(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_; //!< capacity; always a power of two when set
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace hirise

#endif // HIRISE_COMMON_RING_BUFFER_HH
