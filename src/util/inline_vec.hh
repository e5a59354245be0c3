/**
 * @file
 * InlineVec: a fixed-capacity vector whose storage lives inside the
 * object, for hot-loop values with a small hardware-imposed bound
 * (trace segments, a latched trace). Unlike std::vector, copying or
 * clearing one never touches the heap, so structures that embed it
 * (TraceDescriptor, trace cache ways) are assignable with a plain
 * member-wise copy on the simulate-one-cycle path. The capacity is a
 * hard modelling bound: push_back past it asserts in debug builds and
 * drops the element in release builds.
 */

#ifndef SFETCH_UTIL_INLINE_VEC_HH
#define SFETCH_UTIL_INLINE_VEC_HH

#include <cassert>
#include <cstdint>
#include <initializer_list>

namespace sfetch
{

/** Fixed-capacity inline vector of trivially-copyable T. */
template <typename T, unsigned N>
class InlineVec
{
  public:
    static constexpr unsigned kCapacity = N;

    InlineVec() = default;

    InlineVec(std::initializer_list<T> init)
    {
        for (const T &v : init)
            push_back(v);
    }

    InlineVec &
    operator=(std::initializer_list<T> init)
    {
        n_ = 0;
        for (const T &v : init)
            push_back(v);
        return *this;
    }

    unsigned size() const { return n_; }
    bool empty() const { return n_ == 0; }
    bool full() const { return n_ >= N; }
    static constexpr unsigned capacity() { return N; }

    void clear() { n_ = 0; }

    void
    push_back(const T &v)
    {
        assert(n_ < N && "InlineVec overflow");
        if (n_ < N)
            data_[n_++] = v;
    }

    T &
    operator[](unsigned i)
    {
        assert(i < n_);
        return data_[i];
    }

    const T &
    operator[](unsigned i) const
    {
        assert(i < n_);
        return data_[i];
    }

    T &
    back()
    {
        assert(n_ > 0);
        return data_[n_ - 1];
    }

    const T &
    back() const
    {
        assert(n_ > 0);
        return data_[n_ - 1];
    }

    T *data() { return data_; }
    const T *data() const { return data_; }

    T *begin() { return data_; }
    T *end() { return data_ + n_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + n_; }

  private:
    T data_[N];
    unsigned n_ = 0;
};

} // namespace sfetch

#endif // SFETCH_UTIL_INLINE_VEC_HH
