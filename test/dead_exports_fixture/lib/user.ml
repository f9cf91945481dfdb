type watch = { topic : string; mutable retained : bool }

let make topic = { topic; retained = false }

let notify w =
  Feed.publish w.topic;
  let retained = w.retained in
  w.retained <- true;
  retained
