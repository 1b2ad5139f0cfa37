/**
 * @file
 * Shared test fixtures: a process-private scratch directory and a
 * checked JSON member accessor.
 *
 * ctest runs every TEST as its own process, many at once under `-j`, so
 * a fixed file name under testing::TempDir() is shared by every process
 * that writes it. Paths from testDir() live in a directory keyed on the
 * test name and the process id, which no concurrently running test
 * shares, and which is removed when the process exits.
 */
#ifndef MBP_TESTS_TEST_UTIL_HPP
#define MBP_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>

namespace mbp::test
{

/** A fresh directory keyed on the running test and the pid; removed
 *  (with its contents) on destruction by the process that made it. */
class ScopedTestDir
{
  public:
    ScopedTestDir() : owner_(::getpid())
    {
        path_ = testing::TempDir() + "/mbp-" + testName() + "-" +
                std::to_string(owner_);
        std::filesystem::create_directories(path_);
    }

    ~ScopedTestDir()
    {
        // A forked child (death tests) must not remove its parent's files.
        if (::getpid() != owner_)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScopedTestDir(const ScopedTestDir &) = delete;
    ScopedTestDir &operator=(const ScopedTestDir &) = delete;

    /** @return The directory, without a trailing slash. */
    const std::string &path() const { return path_; }

  private:
    /** "Suite.Test" of the running test, or the suite during suite
     *  setup; '/' (parameterized names) becomes '_'. */
    static std::string
    testName()
    {
        const testing::UnitTest &unit = *testing::UnitTest::GetInstance();
        std::string name = "test";
        if (const testing::TestInfo *info = unit.current_test_info())
            name = std::string(info->test_suite_name()) + "." + info->name();
        else if (const testing::TestSuite *suite = unit.current_test_suite())
            name = suite->name();
        for (char &c : name) {
            if (c == '/')
                c = '_';
        }
        return name;
    }

    pid_t owner_;
    std::string path_;
};

/** @return This process's private scratch directory (see file comment). */
inline const std::string &
testDir()
{
    static const ScopedTestDir dir;
    return dir.path();
}

/**
 * @return Member @p key of @p doc. A missing key fails the test with the
 *         whole document in the message and aborts the test body (by
 *         exception) instead of dereferencing a null pointer.
 */
template <typename Json>
const Json &
at(const Json &doc, const std::string &key)
{
    const Json *value = doc.find(key);
    if (value == nullptr) {
        ADD_FAILURE() << "missing key '" << key << "' in " << doc.dump(2);
        throw std::runtime_error("missing key '" + key + "'");
    }
    return *value;
}

} // namespace mbp::test

#endif // MBP_TESTS_TEST_UTIL_HPP
