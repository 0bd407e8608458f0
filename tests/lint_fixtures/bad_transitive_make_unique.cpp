// Fixture: a helper reached from a hot-annotated function allocates
// through std::make_unique<T>(...). The template argument list sits
// between the name and its call parentheses; the transitive rule must
// still see the allocation.
#include <memory>

std::unique_ptr<int> fresh_slot() {
    return std::make_unique<int>(3);  // expect-lint: transitive-hot-path-alloc
}

// pqs-hot: called once per delivered packet.
void deliver_one() {
    (void)fresh_slot();
}
