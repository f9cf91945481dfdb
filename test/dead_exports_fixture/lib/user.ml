type watch = { topic : string; mutable retained : bool }

let make topic = { topic; retained = false }

let describe ~retain w = if retain then w.topic else ""

let notify w =
  Feed.publish ~src:"user" (describe ~retain:true w);
  let retained = w.retained in
  w.retained <- true;
  retained
