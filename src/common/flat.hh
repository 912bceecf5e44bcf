/**
 * @file
 * Flat, fixed-footprint containers for the core's per-cycle paths:
 *
 *   RingIndex    head/size arithmetic of a fixed-capacity ring (no
 *                storage): the ROB's slot partition is one.
 *   FixedRing    a RingIndex with element storage (the LB/SB lists).
 *   RingBitmap   one bit per ring position, with a summary word of
 *                non-empty words.
 *   RingBitScan  walks a RingBitmap's set bits in ring (age) order.
 *   FlatTable    open-addressing hash table: linear probing, backward-shift
 *                erase, no tombstones. Duplicate keys are allowed, so one
 *                type serves as a multimap, a map and a set.
 *
 * None of them allocates after reset()/reserve() unless a FlatTable grows
 * past its reservation, and none keeps a node per element.
 */

#ifndef CONSTABLE_COMMON_FLAT_HH
#define CONSTABLE_COMMON_FLAT_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.hh"

namespace constable {

/**
 * Positions of a fixed-capacity ring. Logical position i (0 = oldest)
 * lives at physical index (head + i) mod capacity; pushBack() claims the
 * next physical index, popFront() retires the oldest and truncate() drops
 * the youngest, so physical order from head is always insertion order.
 */
class RingIndex
{
  public:
    void
    reset(size_t capacity)
    {
        cap_ = capacity;
        head_ = 0;
        size_ = 0;
    }

    size_t capacity() const { return cap_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }
    /** Physical index of the oldest element (the scan origin). */
    size_t head() const { return head_; }

    /** Physical index of logical position @p i (i < capacity). */
    size_t
    phys(size_t i) const
    {
        size_t p = head_ + i;
        return p >= cap_ ? p - cap_ : p;
    }

    /** Logical position of physical index @p p. */
    size_t
    logical(size_t p) const
    {
        return p >= head_ ? p - head_ : p + cap_ - head_;
    }

    /** Claim the youngest position; returns its physical index. */
    size_t
    pushBack()
    {
        CONSTABLE_ASSERT(size_ < cap_, "push onto a full ring");
        return phys(size_++);
    }

    void
    popFront()
    {
        CONSTABLE_ASSERT(size_ > 0, "pop from an empty ring");
        head_ = phys(1);
        --size_;
    }

    /** Keep the @p n oldest elements (squash drops the tail). */
    void
    truncate(size_t n)
    {
        CONSTABLE_ASSERT(n <= size_, "ring truncate past its size");
        size_ = n;
    }

  private:
    size_t cap_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
};

/** A RingIndex with element storage. */
template <typename T>
class FixedRing
{
  public:
    void
    reset(size_t capacity)
    {
        idx_.reset(capacity);
        buf_.assign(capacity, T{});
    }

    size_t size() const { return idx_.size(); }
    bool empty() const { return idx_.empty(); }
    bool full() const { return idx_.full(); }

    T& operator[](size_t i) { return buf_[idx_.phys(i)]; }
    const T& operator[](size_t i) const { return buf_[idx_.phys(i)]; }
    T& front() { return (*this)[0]; }
    T& back() { return (*this)[size() - 1]; }

    void push_back(const T& v) { buf_[idx_.pushBack()] = v; }
    void pop_front() { idx_.popFront(); }
    void truncate(size_t n) { idx_.truncate(n); }

    /** First logical position whose element fails @p pred, for a @p pred
     *  that holds on a prefix of the ring (binary search). */
    template <typename Pred>
    size_t
    partitionPoint(Pred&& pred) const
    {
        size_t lo = 0, hi = size();
        while (lo < hi) {
            size_t mid = lo + (hi - lo) / 2;
            if (pred((*this)[mid]))
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

  private:
    RingIndex idx_;
    std::vector<T> buf_;
};

/** One bit per ring position (at most kMaxBits), plus a summary word with
 *  one bit per non-empty 64-bit word, so scans skip empty words without
 *  touching them. */
class RingBitmap
{
  public:
    static constexpr size_t kMaxBits = 64 * 64;

    void
    reset(size_t bits)
    {
        CONSTABLE_ASSERT(bits <= kMaxBits, "RingBitmap larger than kMaxBits");
        words_.assign((bits + 63) / 64, 0);
        summary_ = 0;
    }

    void
    set(size_t i)
    {
        words_[i / 64] |= 1ull << (i % 64);
        summary_ |= 1ull << (i / 64);
    }

    void
    clear(size_t i)
    {
        uint64_t& w = words_[i / 64];
        w &= ~(1ull << (i % 64));
        if (w == 0)
            summary_ &= ~(1ull << (i / 64));
    }

    bool test(size_t i) const { return (words_[i / 64] >> (i % 64)) & 1; }

  private:
    friend class RingBitScan;

    std::vector<uint64_t> words_;
    uint64_t summary_ = 0; ///< bit w set iff words_[w] != 0
};

/**
 * Walks the set bits of a RingBitmap in ring order from the ring's head --
 * the head word's bits at or above the head, the words after it, the words
 * before it, then the head word's bits below the head -- so positions come
 * out oldest first. Bits outside the ring's occupied range must be clear.
 * The walk works on a snapshot of each word as it reaches it: clearing the
 * current bit before next() is allowed; setting bits during a walk is not.
 */
class RingBitScan
{
  public:
    static constexpr size_t npos = SIZE_MAX;

    /** An unset scan, to be assigned before use. Deliberately leaves the
     *  members uninitialized: the issue stage declares an array of these
     *  per port per cycle, and zero-filling it cost more than the scans. */
    RingBitScan() = default;

    RingBitScan(const RingBitmap& bits, const RingIndex& ring)
        : words_(bits.words_.data())
    {
        const uint64_t sum = bits.summary_;
        const size_t head = ring.head();
        headWord_ = head / 64;
        const uint64_t above = ~0ull << (head % 64);
        below_ = ~above;
        after_ = headWord_ + 1 < 64 ? sum & (~0ull << (headWord_ + 1)) : 0;
        before_ = sum & ((1ull << headWord_) - 1);
        const bool headHasBits = (sum >> headWord_) & 1;
        wrapTail_ = below_ != 0 && headHasBits;
        word_ = headWord_;
        rem_ = headHasBits ? words_[headWord_] & above : 0;
        settle();
    }

    /** Physical index of the current set bit, or npos when done. */
    size_t current() const { return cur_; }

    void
    next()
    {
        rem_ &= rem_ - 1;
        settle();
    }

  private:
    /** Move to the next word holding unvisited bits when the current one
     *  is used up, and compute current(). */
    void
    settle()
    {
        while (rem_ == 0) {
            if (after_ != 0) {
                word_ = static_cast<size_t>(std::countr_zero(after_));
                after_ &= after_ - 1;
                rem_ = words_[word_];
            } else if (before_ != 0) {
                word_ = static_cast<size_t>(std::countr_zero(before_));
                before_ &= before_ - 1;
                rem_ = words_[word_];
            } else if (wrapTail_) {
                wrapTail_ = false;
                word_ = headWord_;
                rem_ = words_[word_] & below_;
            } else {
                cur_ = npos;
                return;
            }
        }
        cur_ = word_ * 64 + static_cast<size_t>(std::countr_zero(rem_));
    }

    const uint64_t* words_;
    size_t headWord_;
    size_t word_;
    uint64_t rem_;     ///< unvisited bits of word_
    uint64_t after_;   ///< non-empty words after the head word
    uint64_t before_;  ///< non-empty words before the head word
    uint64_t below_;   ///< mask of the head word's bits below the head
    bool wrapTail_;    ///< the head word's low part is still due
    size_t cur_;
};

/**
 * Of @p n scans, the index of the one whose current position is oldest by
 * @p age_of(scan, phys) (smaller is older); -1 when all are exhausted. A
 * lone scan needs no age comparison.
 */
template <typename AgeOf>
int
oldestScan(const RingBitScan* scans, unsigned n, AgeOf&& age_of)
{
    int best = -1;
    uint64_t bestAge = 0;
    for (unsigned i = 0; i < n; ++i) {
        size_t p = scans[i].current();
        if (p == RingBitScan::npos)
            continue;
        if (n == 1)
            return 0;
        uint64_t age = age_of(i, p);
        if (best < 0 || age < bestAge) {
            best = static_cast<int>(i);
            bestAge = age;
        }
    }
    return best;
}

/**
 * Open-addressing hash table over integer keys: linear probing in a
 * power-of-two array kept at most half full, and backward-shift erase, so
 * there are no tombstones and every entry sits between its home bucket
 * and the first empty bucket after it. insert() always adds (duplicate
 * keys form a multimap); find()/insertUnique()/operator[] give map and set
 * semantics. Iteration order is unspecified.
 */
template <typename K, typename V>
class FlatTable
{
    static_assert(std::is_integral_v<K>, "FlatTable keys are integers");

  public:
    explicit FlatTable(size_t expected = 8) { reserve(expected); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return slots_.size(); }

    /** Make room for @p n entries without growing. */
    void
    reserve(size_t n)
    {
        size_t cap = 16;
        while (cap < 2 * n)
            cap *= 2;
        if (cap > slots_.size())
            rehash(cap);
    }

    /** Add an entry (a duplicate key adds another entry). */
    void
    insert(K key, const V& value)
    {
        if (2 * (size_ + 1) > slots_.size())
            rehash(2 * slots_.size());
        size_t i = bucketOf(key);
        while (slots_[i].used)
            i = (i + 1) & mask_;
        slots_[i] = Slot{ key, value, true };
        ++size_;
    }

    /** Add @p key unless present; true when it was added. */
    bool
    insertUnique(K key, const V& value = V{})
    {
        if (find(key))
            return false;
        insert(key, value);
        return true;
    }

    /** The value of @p key, default-inserted when absent. */
    V&
    operator[](K key)
    {
        if (V* v = find(key))
            return *v;
        insert(key, V{});
        return *find(key);
    }

    /** First entry's value for @p key, or nullptr. */
    V*
    find(K key)
    {
        for (size_t i = bucketOf(key); slots_[i].used; i = (i + 1) & mask_)
            if (slots_[i].key == key)
                return &slots_[i].value;
        return nullptr;
    }
    const V*
    find(K key) const
    {
        return const_cast<FlatTable*>(this)->find(key);
    }

    bool contains(K key) const { return find(key) != nullptr; }

    /** Call @p fn(value) for every entry of @p key. */
    template <typename Fn>
    void
    forEachMatch(K key, Fn&& fn) const
    {
        for (size_t i = bucketOf(key); slots_[i].used; i = (i + 1) & mask_)
            if (slots_[i].key == key)
                fn(slots_[i].value);
    }

    /** Call @p fn(key, value) for every entry. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Slot& s : slots_)
            if (s.used)
                fn(s.key, s.value);
    }

    /** Erase the first entry of @p key whose value satisfies @p pred;
     *  true when one was erased. */
    template <typename Pred>
    bool
    eraseIf(K key, Pred&& pred)
    {
        for (size_t i = bucketOf(key); slots_[i].used; i = (i + 1) & mask_) {
            if (slots_[i].key == key && pred(slots_[i].value)) {
                eraseAt(i);
                return true;
            }
        }
        return false;
    }

    /** Home bucket of @p key at the current capacity (public so tests
     *  can pick keys that collide or home at the table's end). */
    size_t
    bucketOf(K key) const
    {
        // Fibonacci hashing: the multiply spreads low-entropy keys (line
        // and chunk addresses, PCs) over the high bits kept by the shift.
        uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull;
        return static_cast<size_t>(h >> shift_);
    }

  private:
    struct Slot
    {
        K key {};
        V value {};
        bool used = false;
    };

    /** Backward-shift deletion: pull each later entry of the cluster
     *  into the hole unless that would move it before its home. */
    void
    eraseAt(size_t hole)
    {
        for (size_t j = (hole + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            size_t h = bucketOf(slots_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].used = false;
        --size_;
    }

    void
    rehash(size_t cap)
    {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
        size_ = 0;
        for (const Slot& s : old)
            if (s.used)
                insert(s.key, s.value);
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    unsigned shift_ = 64;
    size_t size_ = 0;
};

/** A FlatTable used as a set. */
template <typename K>
using FlatSet = FlatTable<K, bool>;

} // namespace constable

#endif
