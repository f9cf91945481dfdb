let () =
  Feed.publish ~retain:false "t";
  assert (Feed.retained "t" = None)
