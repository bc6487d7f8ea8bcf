// Stands in for production callers: the test-only pass counts a name as
// live once it appears in another function's body, so calling every
// corpus function here leaves only the cases in src/core/test_only.cpp.
namespace stellaris {

void call_corpus() {
  bad_engine_reference(); bad_reaches_telemetry(); bad_schedules_work();
  bad_shared_rng_capture(); bad_vec_env_member_draw(); bad_wall_clock();
  clean(); emit_all(); good_pure_body(); good_reached_object_stream();
  good_vec_env_keyed_draws(); mixed_guard_kinds(); nested_equal_rank();
  nested_in_order(); nested_out_of_order(); plumbing(); randomness();
  raw_mutexes(); raw_threads(); real_sleeps(); release_then_lower();
  scoped_then_sibling(); shard_walks(); undeclared(); util_uses_obs();
  wall_clock();
  caller_of_helper(1);
  shared_name(1);
}

}  // namespace stellaris
