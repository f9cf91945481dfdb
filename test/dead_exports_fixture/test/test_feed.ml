let () = assert (Feed.retained "t" = None)
