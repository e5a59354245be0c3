/**
 * @file
 * Return address stack with misprediction repair. Following the
 * paper (Section 3.2): the stack is updated speculatively at predict
 * time, and a shadow copy of the stack pointer and top-of-stack value
 * is kept with each in-flight branch; on a misprediction both are
 * restored.
 */

#ifndef SFETCH_BPRED_RAS_HH
#define SFETCH_BPRED_RAS_HH

#include <cstdint>
#include <vector>

#include "layout/code_image.hh"
#include "util/types.hh"

namespace sfetch
{

/** Circular return address stack. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(std::size_t entries = 8)
        : stack_(entries, kNoAddr)
    {}

    /** Push a return address (speculatively, at predict time). */
    void
    push(Addr ret)
    {
        sp_ = sp_ + 1 == stack_.size() ? 0 : sp_ + 1;
        stack_[sp_] = ret;
    }

    /** Pop and return the predicted return target. */
    Addr
    pop()
    {
        Addr top = stack_[sp_];
        sp_ = (sp_ == 0 ? stack_.size() : sp_) - 1;
        return top;
    }

    /** Top of stack without popping. */
    Addr top() const { return stack_[sp_]; }

    /** Shadow state carried with each in-flight branch. */
    struct Checkpoint
    {
        std::size_t sp = 0;
        Addr tos = kNoAddr;
    };

    Checkpoint
    save() const
    {
        return Checkpoint{sp_, stack_[sp_]};
    }

    /** Restore stack pointer and top-of-stack after a misprediction. */
    void
    restore(const Checkpoint &cp)
    {
        sp_ = cp.sp;
        stack_[sp_] = cp.tos;
    }

    std::size_t capacity() const { return stack_.size(); }

  private:
    std::vector<Addr> stack_;
    std::size_t sp_ = 0;
};

/**
 * The predicted target of a return: pop @p ras and use the popped
 * address when @p image holds it, else @p fallback (the
 * fall-through, or the predictor's own successor).
 */
inline Addr
predictReturn(ReturnAddressStack &ras, const CodeImage &image,
              Addr fallback)
{
    const Addr t = ras.pop();
    return image.contains(t) ? t : fallback;
}

} // namespace sfetch

#endif // SFETCH_BPRED_RAS_HH
