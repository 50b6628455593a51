# Fails when a GoogleTest binary's listing is not reproducible: two
# --gtest_list_tests runs must print the same text, with no pointer
# values ("0x") or byte dumps ("-byte object"), since
# gtest_discover_tests copies that text into the CTest names.
#
#   cmake -DTEST_BINARY=<test binary> -P check_test_list.cmake
foreach(run 1 2)
    execute_process(COMMAND ${TEST_BINARY} --gtest_list_tests
        OUTPUT_VARIABLE listing_${run} RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
            "${TEST_BINARY} --gtest_list_tests exited with ${status}")
    endif()
endforeach()
if(NOT listing_1 STREQUAL listing_2)
    message(FATAL_ERROR "two listings of ${TEST_BINARY} differ")
endif()
string(REGEX MATCH "[^\n]*(0x|-byte object)[^\n]*" unstable "${listing_1}")
if(unstable)
    message(FATAL_ERROR
        "${TEST_BINARY} prints a per-run value in a test name: ${unstable}")
endif()
